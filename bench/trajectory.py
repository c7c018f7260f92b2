"""Benchmark trajectory: parent and change medians of every workload, as JSON.

    python3 bench/trajectory.py --parent HEAD --out BENCH_7.json

Run from the root of a git checkout.  The parent is a commit, exported
with ``git archive`` into a temporary directory; the change is the
same files of the working tree.  For each
workload in BENCHMARK.json and each of the fixed seeds,
``perfbench/run.py --trace 0`` runs once per side for the benchmark's
``run_seconds``, in alternating order, one run at a time.  The output
holds, per workload and side, the median of each end-to-end metric,
every run's values, the failed-request count and the host-speed probe,
plus the commits, the Python version and each side's line count of
``src/operadix/*.py`` (as ``wc -l`` counts it).

It also records, per side, the wall time of acceptance criteria 4
(``run(SimConfig(seed=2024, max_steps=100_000))``) and 5 (the three
sweeps at ``(2, 2)``, ``(2, 2)`` and ``(2, 3)``): each runs in a fresh
``python3`` with that side's ``src/`` on ``PYTHONPATH``, sides
alternating, and the best of three runs is kept.  Only the call is
timed, not the import.

It also records, per side, the wall time and the passed count of the
tier-1 tests: ``python -m pytest -q -p no:cacheprovider`` in that
side's checkout, which holds its ``tests/``, ``README.md`` and
``pyproject.toml`` too, with its ``src/`` on ``PYTHONPATH``; sides
alternate and the best of three runs is kept.

It also records, per side, the traced Python line events inside
``src/operadix`` per request of each workload, and per unit of its
work (events for the simulator), over a fixed list of inputs: the
first ``LINE_REQUESTS`` inputs of the workload's generator at
``LINE_SEED``.  They run in a fresh ``python3`` on that side's
``src/``, which imports the ``perfbench`` generators without changing
them, twice per side, sides alternating.  Unlike the clocks, these
counts repeat exactly across runs and processes; they miss C-level
work, such as dict copies, so read them next to the clocks.  The same
counter, in the same way, also gives the traced line events per event
of one ``run()`` at each ``max_oprd`` of ``SCALING_OPRD``, with
``max_fol = 6 * max_oprd``, seed ``SCALING_SEED`` and
``SCALING_STEPS`` steps, the oracle off and after every event: how the
cost of an event grows with the bounds.

The file is a trajectory, not evidence for a speed claim: a claim
still needs its own alternating pairs, with seeds not used during
development.  Standard library only; nothing under perfbench/ changes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PROBE_RE = re.compile(r"host_probe_ms before ([0-9.]+) after ([0-9.]+)")
PASSED_RE = re.compile(r"([0-9]+) passed")
EXPORTED = ("src", "perfbench", "tests", "README.md", "pyproject.toml")
SEEDS = (1, 2, 3, 4, 5)
CRITERIA = {
    "criterion_4": "run(SimConfig(seed=2024, max_steps=100_000))",
    "criterion_5": "sweep_sequential(2, 2), sweep_parallel(2, 2), sweep_identity(2, 3)",
}
CRITERION_ROUNDS = 3
LINE_SEED = 3
LINE_REQUESTS = {"sim-default": 4, "sim-wide-oracle": 4, "eval": 53, "text-pipeline": 100}
SCALING_OPRD = (8, 32, 128)
SCALING_SEED = 7
SCALING_STEPS = 500
TRACER = """\
import itertools, json, sys
sys.path[:0] = ["src", "perfbench"]
import operadix
package = operadix.__file__.rsplit("__init__.py", 1)[0]
lines = 0
def local(frame, event, arg):
    global lines
    lines += event == "line"
    return local
def enter(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(package) else None
"""
LINE_COUNTER = TRACER + """\
from workloads import WORKLOADS
workload = WORKLOADS[{name!r}](operadix, {seed})
units = 0
for inp in itertools.islice(workload.inputs(), {requests}):
    sys.settrace(enter)
    out = workload.request(inp, lambda fn, *args: fn(*args))
    sys.settrace(None)
    units += workload.units(inp, out)
print(json.dumps({{"lines": lines, "units": units}}))
"""
SCALING_COUNTER = TRACER + """\
config = operadix.Config(max_oprd={max_oprd}, max_fol={max_fol})
sim = operadix.SimConfig(seed={seed}, max_steps={steps}, config=config, oracle_check_every={every})
sys.settrace(enter)
report = operadix.run(sim)
sys.settrace(None)
print(json.dumps({{"lines": lines, "units": report.steps}}))
"""
TIMER = """\
import time
from operadix import SimConfig, run, sweep_identity, sweep_parallel, sweep_sequential
started = time.perf_counter()
{call}
print(time.perf_counter() - started)
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_commit(rev: str, into: Path) -> str:
    """Unpack the EXPORTED paths of rev into a fresh directory; return the full hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit, *EXPORTED],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return commit


def copy_worktree(into: Path) -> str:
    """Copy the EXPORTED paths of the working tree; describe it by HEAD."""
    into.mkdir()
    for name in EXPORTED:
        if (ROOT / name).is_dir():
            ignore = shutil.ignore_patterns("__pycache__", "out", ".hypothesis")
            shutil.copytree(ROOT / name, into / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, into / name)
    dirty = git("status", "--porcelain", "--", *EXPORTED) != ""
    return git("rev-parse", "HEAD") + (" + working tree" if dirty else "")


def src_lines(checkout: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "operadix").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    probe = PROBE_RE.search(proc.stdout)
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "host_probe_ms": [float(probe.group(1)), float(probe.group(2))] if probe else None,
    }


def criterion_seconds(checkout: Path, call: str) -> float:
    """Wall time of one criterion call in a fresh interpreter on checkout/src."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", TIMER.format(call=call)], cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"criterion run in {checkout} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def time_criteria(sides: dict[str, Path]) -> dict[str, dict[str, dict]]:
    """Best and every wall time per criterion and side, sides alternating."""
    times: dict[str, dict[str, list[float]]] = {name: {side: [] for side in sides} for name in CRITERIA}
    for turn in range(CRITERION_ROUNDS):
        order = list(sides) if turn % 2 == 0 else list(reversed(sides))
        for name, call in CRITERIA.items():
            for side in order:
                seconds = criterion_seconds(sides[side], call)
                times[name][side].append(seconds)
                print(f"{name} {side}: {seconds:.3f} s", file=sys.stderr)
    return {
        name: {side: {"best_s": min(runs), "runs_s": runs} for side, runs in by_side.items()}
        for name, by_side in times.items()
    }


def traced(checkout: Path, code: str, what: str) -> dict:
    """Run one counter script in a fresh interpreter on checkout; its lines and units."""
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"line count of {what} in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def line_events(checkout: Path, workload: str) -> dict:
    """Traced src/operadix line events over the workload's fixed inputs, in a fresh interpreter."""
    requests = LINE_REQUESTS[workload]
    code = LINE_COUNTER.format(name=workload, seed=LINE_SEED, requests=requests)
    counted = traced(checkout, code, workload)
    per_unit = counted["lines"] / counted["units"] if counted["units"] else None
    return {**counted, "requests": requests, "per_request": counted["lines"] / requests, "per_unit": per_unit}


def count_lines(sides: dict[str, Path]) -> dict[str, dict[str, dict]]:
    """Line events per workload and side; two runs per side, sides alternating."""
    runs: dict[str, dict[str, list[dict]]] = {}
    for w in BENCHMARK["workloads"]:
        runs[w["name"]] = {side: [] for side in sides}
        for turn in range(2):
            for side in list(sides) if turn % 2 == 0 else list(reversed(sides)):
                runs[w["name"]][side].append(line_events(sides[side], w["name"]))
    counts = {}
    for workload, by_side in runs.items():
        counts[workload] = {side: {**pair[0], "repeats_equal": pair[0] == pair[1]} for side, pair in by_side.items()}
        shown = {side: f"{entry['per_request']:.1f}" for side, entry in counts[workload].items()}
        print(f"lines per request {workload}: {shown}", file=sys.stderr)
    return counts


def count_scaling(sides: dict[str, Path]) -> dict[str, dict[str, dict]]:
    """Line events per event of one run() per max_oprd, oracle off and on; two runs per side, alternating."""
    counts = {}
    for max_oprd in SCALING_OPRD:
        for every in (0, 1):
            name = f"max_oprd={max_oprd} oracle_check_every={every}"
            code = SCALING_COUNTER.format(
                max_oprd=max_oprd, max_fol=6 * max_oprd, seed=SCALING_SEED, steps=SCALING_STEPS, every=every,
            )
            runs: dict[str, list[dict]] = {side: [] for side in sides}
            for turn in range(2):
                for side in list(sides) if turn % 2 == 0 else list(reversed(sides)):
                    runs[side].append(traced(sides[side], code, name))
            counts[name] = {
                side: {**pair[0], "per_event": pair[0]["lines"] / pair[0]["units"], "repeats_equal": pair[0] == pair[1]}
                for side, pair in runs.items()
            }
            shown = {side: f"{entry['per_event']:.1f}" for side, entry in counts[name].items()}
            print(f"lines per event {name}: {shown}", file=sys.stderr)
    return counts


def tier1_once(checkout: Path) -> dict:
    """Wall time and passed count of one tier-1 run in checkout, on its src/."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - started
    passed = PASSED_RE.findall(proc.stdout)
    if not passed:
        raise SystemExit(f"tier-1 run in {checkout} gave no summary:\n{proc.stdout}{proc.stderr}")
    return {"seconds": seconds, "passed": int(passed[-1])}


def time_tier1(sides: dict[str, Path]) -> dict[str, dict]:
    """Best wall time, its passed count and every run per side, sides alternating."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for turn in range(CRITERION_ROUNDS):
        for side in list(sides) if turn % 2 == 0 else list(reversed(sides)):
            run = tier1_once(sides[side])
            runs[side].append(run)
            print(f"tier-1 {side}: {run['seconds']:.1f} s, {run['passed']} passed", file=sys.stderr)
    best = {side: min(side_runs, key=lambda run: run["seconds"]) for side, side_runs in runs.items()}
    return {
        side: {"best_s": best[side]["seconds"], "passed": best[side]["passed"], "runs": side_runs}
        for side, side_runs in runs.items()
    }


def summarize(runs: list[dict]) -> dict:
    names = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    return {
        "median": {name: statistics.median(run["metrics"][name] for run in runs) for name in names},
        "failed": sum(run["failed"] for run in runs),
        "correct": all(run["correct"] for run in runs),
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_7.json")
    args = parser.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        parent_dir, change_dir = Path(tmp, "parent"), Path(tmp, "change")
        parent_commit = export_commit(args.parent, parent_dir)
        change_commit = copy_worktree(change_dir)
        sides = {"parent": parent_dir, "change": change_dir}
        lines = {side: src_lines(checkout) for side, checkout in sides.items()}
        line_counts = count_lines(sides)
        scaling = count_scaling(sides)
        criteria = time_criteria(sides)
        tier1 = time_tier1(sides)
        runs: dict[str, dict[str, list[dict]]] = {}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            runs[workload] = {"parent": [], "change": []}
            for turn, seed in enumerate(SEEDS):
                order = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(sides[side], workload, seed, seconds)
                    runs[workload][side].append(run)
                    rps = run["metrics"]["requests_per_s"]
                    print(f"{workload} seed {seed} {side}: requests_per_s {rps:.4g}", file=sys.stderr)

    report = {
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "src_lines": lines,
        "criteria": criteria,
        "line_events": {"seed": LINE_SEED, "workloads": line_counts},
        "run_line_events": {
            "seed": SCALING_SEED, "steps": SCALING_STEPS, "max_fol": "6 * max_oprd", "configs": scaling,
        },
        "tier1": tier1,
        "seconds": seconds,
        "seeds": list(SEEDS),
        "order": "alternating, parent first on even turns",
        "workloads": {
            workload: {side: summarize(side_runs) for side, side_runs in by_side.items()}
            for workload, by_side in runs.items()
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
