"""Randomized exploration of the grafting machine.

The simulator fires random create and compose events against one
machine state and mirrors every fired event on the tree side, in one
MirrorForest updated in O(component) per event.  The forest's
agreement with the state, one equality per relation, gives every
event's invariant verdict: a state the forest agrees with and within
the bounds breaks no invariant, so check_invariants runs only to name
the labels of a failure.  Every disagreement is also explained root by
root with compare_with_flat, whose labels the report carries, so a
clean run never compares a root.  oracle_check_every only sets how
many events the report counts as oracle checks.  A run is
fully determined by its SimConfig: the sampler draws from a seeded
Mersenne Twister and never iterates an unordered container, so the
same config always produces the same report, byte for byte.

When no event can fire on the current state, the state is recorded
and reset, and exploration continues from scratch; the count
and the stuck states end up in the report, and a reset marker lands in
the trace.  The full trace of a run, markers included, replays to the
same final state through replay().
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .core import Config, GuardFailed, StateFormatError
from .flat_machine import (
    ComposeSeq,
    Event,
    FlatState,
    NewOperad,
    _within_bounds,
    apply_event,
    check_invariants,
    compose_seq_with_witness,
    composition_law_violations,
    empty_state,
    new_operad,
    roots,
)
from .serialize import dump_state
from .tree_oracle import MirrorForest, compare_with_flat

RNG_NAME = "mt19937"
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class TraceReset:
    """Trace marker: the machine went back to the empty state here.

    Not a machine event; only replay and the trace format know it.
    """


@dataclass(frozen=True)
class SimConfig:
    seed: int
    max_steps: int
    config: Config = field(default_factory=Config)
    oracle_check_every: int = 0

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        if self.oracle_check_every < 0:
            raise ValueError("oracle_check_every must be non-negative")


@dataclass(frozen=True)
class Violation:
    """One failed check, with enough context to reproduce it."""

    step: int
    kind: str  # invariant, law or oracle
    labels: tuple[str, ...]
    event: Event
    detail: str


@dataclass(frozen=True)
class SimReport:
    seed: int
    rng: str
    steps: int
    fired: dict[str, int]
    guard_failures: dict[str, int]
    deadlock_resets: int
    deadlock_states: tuple[str, ...]
    oracle_checks: int
    violations: tuple[Violation, ...]
    trace: tuple[Event | TraceReset, ...]
    elapsed_seconds: float = field(compare=False, default=0.0)


def _verdict(state: FlatState, agrees: bool) -> list[str]:
    """check_invariants(state); if the mirror forest agrees with state, only a bound can fail."""
    return [] if agrees and all(_within_bounds(state)) else check_invariants(state)


def run(sim: SimConfig) -> SimReport:
    """Fire sim.max_steps random events and check the state after each.

    A forest update that raises ends the run with no report.  The trees
    mirror the fired events, so only a machine that accepts an event
    they reject, which takes a corrupted compose, gets there.
    """
    started = time.perf_counter()
    rng = random.Random(sim.seed)
    cfg = sim.config
    state = empty_state(cfg)
    forest = MirrorForest()

    fired: dict[str, int] = {}
    guard_failures: dict[str, int] = {}
    violations: list[Violation] = []
    trace: list[Event] = []
    deadlock_dumps: list[str] = []
    deadlock_resets = 0
    oracle_checks = 0
    fired_count = 0
    next_id = 0

    while fired_count < sim.max_steps:
        root_list = roots(state)
        can_create = len(state.arity_op) < cfg.max_oprd
        can_compose = len(root_list) >= 2
        if not (can_create or can_compose):
            deadlock_resets += 1
            deadlock_dumps.append(dump_state(state))
            trace.append(TraceReset())
            state = empty_state(cfg)
            forest = MirrorForest()
            continue

        # toss on every draw: testing can_compose first would change the random stream
        if rng.random() < 0.5 and can_compose:
            name = "compose_seq"
            op1 = rng.choice(root_list)
            op2 = rng.choice([op for op in root_list if op != op1])
            ii = rng.choice(sorted(state.hats[op1]))
            event: Event = ComposeSeq(op1, ii, op2)
        else:
            name = "new_operad"
            event = NewOperad(f"op{next_id}", rng.randint(1, cfg.max_args), 1)

        witness = None
        try:
            if isinstance(event, NewOperad):
                state = new_operad(state, event.op_id, event.arity, event.outs)
                forest.new(event.op_id, event.arity)
                next_id += 1
            else:
                state, witness = compose_seq_with_witness(state, event.op1, event.pos, event.op2)
                forest.graft(event.op1, event.pos, event.op2)
        except GuardFailed as exc:
            guard_failures[exc.label] = guard_failures.get(exc.label, 0) + 1
            continue

        fired_count += 1
        fired[name] = fired.get(name, 0) + 1
        trace.append(event)

        if sim.oracle_check_every and fired_count % sim.oracle_check_every == 0:
            oracle_checks += 1
        agrees = forest.agrees_with(state)

        bad = _verdict(state, agrees)
        if bad:
            violations.append(Violation(fired_count, "invariant", tuple(bad), event, dump_state(state)))
        if witness is not None:
            laws = composition_law_violations(state, witness)
            if laws:
                violations.append(Violation(fired_count, "law", tuple(laws), event, dump_state(state)))
        if not agrees:
            # a mismatch: compare root by root, for its exact labels
            for root_id in sorted(forest.trees):
                problems = compare_with_flat(state, root_id, forest.trees[root_id])
                if problems:
                    violations.append(Violation(fired_count, "oracle", tuple(problems), event, dump_state(state)))

    return SimReport(
        seed=sim.seed,
        rng=RNG_NAME,
        steps=fired_count,
        fired=fired,
        guard_failures=guard_failures,
        deadlock_resets=deadlock_resets,
        deadlock_states=tuple(deadlock_dumps),
        oracle_checks=oracle_checks,
        violations=tuple(violations),
        trace=tuple(trace),
        elapsed_seconds=time.perf_counter() - started,
    )


def replay(events, config: Config | None = None) -> FlatState:
    """Refire a trace from the empty state; all guards stay armed."""
    state = empty_state(config)
    for step, event in enumerate(events, start=1):
        if isinstance(event, TraceReset):
            state = empty_state(config)
            continue
        try:
            state = apply_event(state, event)
        except GuardFailed as exc:
            raise GuardFailed(exc.label, f"{_event_line(event)!r}: {exc.message}", step=step) from exc
    return state


def _event_line(event: Event | TraceReset) -> str:
    if isinstance(event, TraceReset):
        return "reset"
    if isinstance(event, NewOperad):
        return f"new {event.op_id} {event.arity} {event.outs}"
    return f"compose {event.op1} {event.pos} {event.op2}"


def format_trace(events) -> str:
    """One line per entry: ``new id arity outs``, ``compose id pos id`` or ``reset``."""
    return "".join(_event_line(event) + "\n" for event in events)


def parse_trace(text: str) -> list[Event | TraceReset]:
    events: list[Event | TraceReset] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields == ["reset"]:
            events.append(TraceReset())
        elif fields[0] == "new" and len(fields) == 4 and _DIGITS.issuperset(fields[2] + fields[3]):
            events.append(NewOperad(fields[1], int(fields[2]), int(fields[3])))
        elif fields[0] == "compose" and len(fields) == 4 and _DIGITS.issuperset(fields[2]):
            events.append(ComposeSeq(fields[1], int(fields[2]), fields[3]))
        else:
            raise StateFormatError(f"trace line {lineno}: cannot parse {raw.strip()!r}")
    return events


def _counts_text(counts: dict[str, int]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "none"


def format_report(report: SimReport, include_timing: bool = False) -> str:
    """Stable human-readable summary; timing only on request."""
    lines = [
        f"seed: {report.seed}",
        f"rng: {report.rng}",
        f"steps: {report.steps}",
        f"fired: {_counts_text(report.fired)}",
        f"guard-failures: {_counts_text(report.guard_failures)}",
        f"deadlock-resets: {report.deadlock_resets}",
        f"oracle-checks: {report.oracle_checks}",
        f"violations: {len(report.violations)}",
    ]
    for violation in report.violations:
        lines.append(
            f"violation: step={violation.step} kind={violation.kind} "
            f"event={_event_line(violation.event)!r} labels={','.join(violation.labels)}"
        )
    if include_timing:
        lines.append(f"elapsed: {report.elapsed_seconds:.3f}s")
    return "\n".join(lines) + "\n"


def report_to_json(report: SimReport, include_timing: bool = False) -> dict:
    out = {
        "seed": report.seed,
        "rng": report.rng,
        "steps": report.steps,
        "fired": dict(sorted(report.fired.items())),
        "guard_failures": dict(sorted(report.guard_failures.items())),
        "deadlock_resets": report.deadlock_resets,
        "oracle_checks": report.oracle_checks,
        "violations": [
            {
                "step": v.step,
                "kind": v.kind,
                "labels": list(v.labels),
                "event": _event_line(v.event),
                "detail": v.detail,
            }
            for v in report.violations
        ],
        "trace": [_event_line(event) for event in report.trace],
    }
    if include_timing:
        out["elapsed_seconds"] = report.elapsed_seconds
    return out
