"""operadix benchmark: one closed-loop client with checked results.

    python3 perfbench/run.py --workload sim-default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; operadix is imported from ``src/`` of
that checkout and from nowhere else.  One process, no threads, one
request at a time; ``operadix`` subprocesses (text-pipeline only) run one
at a time while this process waits.  Every result is checked outside the
timed region against references in ``reference.py``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
and the spans and their summary are written to ``perfbench/out/``.  The
lines before it repeat the metrics for a reader, with the workload's own
throughput, the CLI latencies, the error rate and the host-speed probe.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import probes
from spans import RECONSTRUCT, REQUEST, Tracer, nearest_rank
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
HARD_STOP_S = 150

# per-layer metric -> (unit, better, key in the flattened trace summary)
PER_LAYER = {
    "flat_machine.new_operad.calls": ("count", "higher", "flat_machine.new_operad.calls"),
    "flat_machine.new_operad.us_p50": ("us", "lower", "flat_machine.new_operad.us_p50"),
    "flat_machine.compose_seq.calls": ("count", "higher", "flat_machine.compose_seq_with_witness.calls"),
    "flat_machine.compose_seq.us_p50": ("us", "lower", "flat_machine.compose_seq_with_witness.us_p50"),
    "flat_machine.compose_seq.us_p99": ("us", "lower", "flat_machine.compose_seq_with_witness.us_p99"),
    "flat_machine.check_invariants.calls": ("count", "higher", "flat_machine.check_invariants.calls"),
    "flat_machine.check_invariants.us_p50": ("us", "lower", "flat_machine.check_invariants.us_p50"),
    "flat_machine.check_invariants.us_p99": ("us", "lower", "flat_machine.check_invariants.us_p99"),
    "flat_machine.composition_law_violations.us_p50": (
        "us", "lower", "flat_machine.composition_law_violations.us_p50"),
    "flat_machine.busy_share": ("share", "lower", "flat_machine.busy_share"),
    "simulator.fire_ratio": ("share", "higher", "simulator.fire_ratio"),
    "simulator.deadlock_resets": ("1/kevent", "lower", "simulator.deadlock_resets"),
    "simulator.self_share": ("share", "lower", "simulator.self_share"),
    "simulator.busy_share": ("share", "lower", "simulator.busy_share"),
    "simulator.replay.us_p50": ("us", "lower", "simulator.replay.us_p50"),
    "simulator.event_us.oprd8": ("us", "lower", "simulator.event_us.oprd8"),
    "simulator.event_us.oprd32": ("us", "lower", "simulator.event_us.oprd32"),
    "simulator.event_us.oprd128": ("us", "lower", "simulator.event_us.oprd128"),
    "tree_oracle.graft.us_p50": ("us", "lower", "tree_oracle.graft.us_p50"),
    "tree_oracle.compare_with_flat.calls": ("count", "higher", "tree_oracle.compare_with_flat.calls"),
    "tree_oracle.compare_with_flat.us_p50": ("us", "lower", "tree_oracle.compare_with_flat.us_p50"),
    "tree_oracle.compare_with_flat.us_p99": ("us", "lower", "tree_oracle.compare_with_flat.us_p99"),
    "tree_oracle.busy_share": ("share", "lower", "tree_oracle.busy_share"),
    "endomorphism.circ.calls": ("count", "higher", "endomorphism.circ.calls"),
    "endomorphism.circ.us_p50": ("us", "lower", "endomorphism.circ.us_p50"),
    "endomorphism.circ.us_p99": ("us", "lower", "endomorphism.circ.us_p99"),
    "endomorphism.circ.entries_per_s": ("1/s", "higher", "endomorphism.circ.entries_per_s"),
    "endomorphism.sweep_sequential.s": ("s", "lower", "endomorphism.sweep_sequential.total_s"),
    "endomorphism.sweep_parallel.s": ("s", "lower", "endomorphism.sweep_parallel.total_s"),
    "endomorphism.sweep_identity.s": ("s", "lower", "endomorphism.sweep_identity.total_s"),
    "endomorphism.interpret.us_p50": ("us", "lower", "endomorphism.interpret.us_p50"),
    "endomorphism.busy_share": ("share", "lower", "endomorphism.busy_share"),
    "expr_parser.parse.us_p50": ("us", "lower", "expr_parser.parse.us_p50"),
    "expr_parser.parse.chars_per_s": ("1/s", "higher", "expr_parser.parse.chars_per_s"),
    "expr_parser.print_program.us_p50": ("us", "lower", "expr_parser.print_program.us_p50"),
    "expr_parser.elaborate.us_p50": ("us", "lower", "expr_parser.elaborate.us_p50"),
    "expr_parser.busy_share": ("share", "lower", "expr_parser.busy_share"),
    "serialize.dump_state.calls": ("count", "higher", "serialize.dump_state.calls"),
    "serialize.dump_state.us_p50": ("us", "lower", "serialize.dump_state.us_p50"),
    "serialize.load_state.us_p50": ("us", "lower", "serialize.load_state.us_p50"),
    "serialize.state_to_json.us_p50": ("us", "lower", "serialize.state_to_json.us_p50"),
    "serialize.busy_share": ("share", "lower", "serialize.busy_share"),
    "decoration.compose_seq_x.us_p50": ("us", "lower", "decoration.compose_seq_x.us_p50"),
    "decoration.dump_decorated.us_p50": ("us", "lower", "decoration.dump_decorated.us_p50"),
    "decoration.load_decorated.us_p50": ("us", "lower", "decoration.load_decorated.us_p50"),
    "decoration.check_gluing.us_p50": ("us", "lower", "decoration.check_gluing.us_p50"),
    "decoration.busy_share": ("share", "lower", "decoration.busy_share"),
    "cli.main.us_p50": ("us", "lower", "cli.main.us_p50"),
    "cli.import_ms": ("ms", "lower", "cli.import_ms"),
    "cli.startup_share": ("share", "lower", "cli.startup_share"),
    "trace.overhead_share": ("share", "lower", "trace.overhead_share"),
}


def direct(fn, *args):
    return fn(*args)


def attempt(thunk):
    """Run thunk; a raised exception becomes a problem, not a crash."""
    try:
        return thunk(), []
    except Exception as exc:  # every failure of a request is counted, not fatal
        return None, [f"{type(exc).__name__}: {exc}"]


def host_probe_ms() -> float:
    """Best of three runs of a fixed pure-Python loop.  Metadata only."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def set_up(name: str, seed: int):
    """Import operadix, build the workload, run one untimed checked request.

    Repeated with a fresh import each time; the median is ``setup_s``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for module in [m for m in sys.modules if m == "operadix" or m.startswith("operadix.")]:
            del sys.modules[module]
        start = time.perf_counter()
        ox = importlib.import_module("operadix")
        workload = WORKLOADS[name](ox, seed)
        inp = workload.warmup_input()
        out, problems = attempt(lambda: workload.request(inp, direct))
        times.append(time.perf_counter() - start)
        problems = problems or checked(workload, inp, out, direct)
        gc.collect()  # free the previous import, so that it does not count in peak_rss_mb
    if not Path(ox.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"operadix was imported from {ox.__file__}, not from {SRC}")
    return workload, statistics.median(times), problems


class Tally:
    """What one run did: request latencies, work, failures, CLI calls."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.first_pass: list[float] = []
        self.missed = 0
        self.units = 0
        self.unit_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cli_ms: list[float] = []
        self.overhead_share = 0.0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def checked(workload, inp, out, call) -> list[str]:
    result, problems = attempt(lambda: workload.check(inp, out, call))
    return problems or result


def timed_request(workload, inp):
    begin = time.perf_counter()
    out, problems = attempt(lambda: workload.request(inp, direct))
    return time.perf_counter() - begin, out, problems


def measure(workload, seconds: float) -> Tally:
    """Untraced run: ``workload.rate * seconds`` requests, each ``workload.passes`` times.

    The request count is fixed by ``seconds``, not by how fast the
    requests run, so every run of a workload does the same mix of work.
    The first pass checks every result; each later pass regenerates the
    same inputs from the seed and requires a result equal to the first
    (by digest).  A request's latency is its fastest run, which filters
    out slow phases of a shared host; only requests are timed.
    """
    tally = Tally()
    requests = max(1, round(workload.rate * seconds))
    cli_every = requests // round(workload.cli_rate * seconds) if workload.cli_rate else 0
    digests, best, units = [], [], []
    timed_s = 0.0
    start = time.perf_counter()
    for i, inp in zip(range(requests), workload.inputs()):
        latency, out, problems = timed_request(workload, inp)
        problems = problems or checked(workload, inp, out, direct)
        tally.record(problems)
        digests.append(None if problems else workload.digest(out))
        best.append(latency)
        units.append(0 if problems else workload.units(inp, out))
        if cli_every and i % cli_every == 0 and not problems:
            cli_call(workload, tally, inp, out)
        timed_s += latency
        if time.perf_counter() - start + (workload.passes - 1) * timed_s >= HARD_STOP_S:
            break
    tally.first_pass = list(best)
    for _ in range(workload.passes - 1):
        for i, inp in zip(range(len(best)), workload.inputs()):
            if digests[i] is None:
                continue
            latency, out, problems = timed_request(workload, inp)
            if problems or workload.digest(out) != digests[i]:
                digests[i] = None
                tally.failed += 1
                tally.problems.extend(problems or [f"request {i} gave another result when repeated"])
            else:
                best[i] = min(best[i], latency)
    for digest, latency, done in zip(digests, best, units):
        if digest is None:
            tally.missed += 1
            continue
        tally.latencies.append(latency)
        if done:
            tally.units += done
            tally.unit_seconds += latency
    return tally


def trace_run(workload, seconds: float) -> tuple[Tally, Tracer]:
    """Traced run: each request once untraced and once traced, until ``seconds``.

    It stops on time alone: its statistics come from calls, not requests.
    """
    tally = Tally()
    tracer = Tracer()
    overheads = []
    cli_every = round(workload.rate / workload.cli_rate) if workload.cli_rate else 0
    start = time.perf_counter()
    for rid, inp in enumerate(workload.inputs()):
        out, problems, traced, twin = traced_request(workload, tracer, rid, inp)
        overheads.append(traced / twin - 1 if twin else 0.0)
        tally.record(problems)
        if cli_every and rid % cli_every == 0 and not problems:
            cli_call(workload, tally, inp, out, tracer.caller(-1, rid))
        if time.perf_counter() - start >= seconds:
            break
    tally.overhead_share = statistics.median(overheads)
    return tally, tracer


def traced_request(workload, tracer: Tracer, rid: int, inp):
    """The request once untraced and once traced, in alternating order.

    Returns the traced result, its problems, and both durations in ns.
    """
    twin = traced = 0
    twin_out = out = None
    problems: list[str] = []
    for traced_turn in ((False, True) if rid % 2 else (True, False)):
        if traced_turn:
            sid = tracer.open(REQUEST, -1, rid)
            out, problems = attempt(lambda: workload.request(inp, tracer.caller(sid, rid)))
            tracer.close(sid)
            traced = tracer.spans[sid][4] - tracer.spans[sid][3]
        else:
            begin = time.perf_counter_ns()
            twin_out, _ = attempt(lambda: workload.request(inp, direct))
            twin = time.perf_counter_ns() - begin
    if problems:
        return out, problems, traced, twin
    rsid = tracer.open(RECONSTRUCT, tracer.last_child(sid), rid)
    result, problems = attempt(lambda: workload.reconstruct(inp, out, tracer.caller(rsid, rid)))
    tracer.close(rsid)
    problems = problems or result
    problems += checked(workload, inp, out, tracer.caller(-1, rid))
    if twin_out != out:
        problems.append("traced and untraced results differ")
    return out, problems, traced, twin


def cli_call(workload, tally: Tally, inp, out, call=None) -> None:
    """One ``operadix`` subprocess; with ``call``, also ``cli.main`` in process."""
    command, stdin, expected = workload.cli_expectation(inp, out)
    begin = time.perf_counter()
    result, problems = attempt(lambda: workload.run_cli(command, stdin))
    seconds = time.perf_counter() - begin
    runs = [result]
    if call is not None and not problems:
        in_process, problems = attempt(lambda: workload.main_in_process(command, stdin, call))
        runs.append(in_process)
    if not problems:
        problems = [f"operadix {command}: exit {code}" for code, _ in runs if code != 0]
        problems += [f"operadix {command}: unexpected output" for _, text in runs if text != expected]
    tally.record(problems)
    if not problems:
        tally.cli_ms.append(seconds * 1e3)


def percentile_ms(tally: Tally, pct: int, window_s: float) -> float:
    """Latency percentile in ms; a failed request is a miss at every percentile.

    A miss that lands on the percentile reads as the whole run's length.
    """
    value = nearest_rank(sorted(tally.latencies) + [math.inf] * tally.missed, pct)
    return (window_s if value == math.inf else value) * 1e3


def end_to_end(workload, tally: Tally, setup_s: float, window_s: float) -> tuple[dict, dict]:
    """Gated metrics, and the workload-specific ones printed for a reader."""
    requests = len(tally.latencies) + tally.missed
    busy_s = sum(tally.latencies) + tally.missed * window_s
    gated = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "requests_per_s": (requests / busy_s, "1/s"),
        "request_ms_p50": (percentile_ms(tally, 50, window_s), "ms"),
        "request_ms_p90": (percentile_ms(tally, 90, window_s), "ms"),
    }
    shown = {
        "error_rate": (tally.failed / tally.attempted, "share"),
        workload.work_metric: (tally.units / tally.unit_seconds if tally.unit_seconds else 0.0, "1/s"),
        "first_pass_ms_p50": (nearest_rank(sorted(tally.first_pass), 50) * 1e3, "ms"),
    }
    if tally.cli_ms:
        cli = sorted(tally.cli_ms)
        shown["cli_ms_p50"] = (nearest_rank(cli, 50), "ms")
        shown["cli_ms_p90"] = (nearest_rank(cli, 90), "ms")
    return gated, shown


def per_layer(workload, tally: Tally, tracer: Tracer) -> tuple[dict, dict]:
    summary = tracer.summary()
    flat = {}
    for name, stats in summary["functions"].items():
        flat.update({f"{name}.{key}": value for key, value in stats.items()})
    for module, stats in summary["modules"].items():
        flat[f"{module}.busy_share"] = stats["busy_share"]
    flat.update(workload.layer_metrics(summary))
    timed = {key for _, _, key in PER_LAYER.values() if key.endswith((".us_p50", ".us_p99", ".total_s"))}
    idle = {key.rsplit(".", 1)[0] for key in timed - set(flat)}
    flat.update(probes.idle_times(workload.ox, idle))
    flat.update(probes.scaling(workload.ox))
    flat["cli.import_ms"] = probes.import_ms(workload.ox)
    flat["trace.overhead_share"] = tally.overhead_share
    if tally.cli_ms and flat.get("cli.main.us_p50"):
        flat["cli.startup_share"] = 1 - flat["cli.main.us_p50"] / 1e3 / nearest_rank(sorted(tally.cli_ms), 50)
    metrics = {name: (flat.get(key, 0.0), unit) for name, (unit, _, key) in PER_LAYER.items()}
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "operadix" / "__init__.py").is_file():
        print(f"error: no operadix package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    probe_before = host_probe_ms()
    workload, setup_s, warmup_problems = set_up(args.workload, args.seed)
    begin = time.perf_counter()
    if args.trace:
        tally, tracer = trace_run(workload, args.seconds)
    else:
        tally = measure(workload, args.seconds)
    window_s = time.perf_counter() - begin
    if warmup_problems:
        tally.record(warmup_problems)
    if args.trace:
        metrics, summary = per_layer(workload, tally, tracer)
        shown = {}
    else:
        metrics, shown = end_to_end(workload, tally, setup_s, window_s)
    probe_after = host_probe_ms()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"host_probe_ms before {probe_before:.3f} after {probe_after:.3f} (metadata, not a metric)")
    print(f"requests {tally.attempted - len(tally.cli_ms)} cli_calls {len(tally.cli_ms)} "
          f"attempted {tally.attempted} failed {tally.failed} window_s {window_s:.3f}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in tally.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.spans.tsv")
        (OUT / f"{args.workload}.summary.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "host_probe_ms": {"before": probe_before, "after": probe_after},
            "metrics": {name: value for name, (value, _) in metrics.items()},
            **summary,
        }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
