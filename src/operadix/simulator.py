"""Randomized exploration of the grafting machine.

The simulator fires random create and compose events against one
machine state, checks every invariant after every fired event, and can
mirror the whole run on the tree side to cross-check the two
representations.  A run is fully determined by its SimConfig: the
sampler draws from a seeded Mersenne Twister and never iterates an
unordered container, so the same config always produces the same
report, byte for byte.

When no weighted event can fire on the current state, the state is
recorded and reset, and exploration continues from scratch; the count
and the stuck states end up in the report, and a reset marker lands in
the trace.  The full trace of a run, markers included, replays to the
same final state through replay().
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .core import Config, GuardFailed, OverflowFoliage, StateFormatError
from .flat_machine import (
    ComposeSeq,
    Event,
    FlatState,
    NewOperad,
    apply_event,
    check_invariants,
    compose_seq_with_witness,
    composition_law_violations,
    empty_state,
    foliage_of,
    new_operad,
)
from .serialize import dump_state
from .tree_oracle import TreeOperad, compare_with_flat, elementary, graft

RNG_NAME = "mt19937"

_EVENT_NAMES = ("new_operad", "compose_seq")


@dataclass(frozen=True)
class TraceReset:
    """Trace marker: the machine went back to the empty state here.

    Not a machine event; only replay and the trace format know it.
    """


def _default_weights() -> dict[str, float]:
    return {"new_operad": 1.0, "compose_seq": 1.0}


@dataclass(frozen=True)
class SimConfig:
    seed: int
    max_steps: int
    config: Config = field(default_factory=Config)
    event_weights: dict[str, float] = field(default_factory=_default_weights)
    oracle_check_every: int = 0

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        if self.oracle_check_every < 0:
            raise ValueError("oracle_check_every must be non-negative")
        for name, weight in self.event_weights.items():
            if name not in _EVENT_NAMES:
                raise ValueError(f"unknown event {name!r} in weights")
            if weight < 0:
                raise ValueError(f"weight for {name!r} must be non-negative")
        if not any(w > 0 for w in self.event_weights.values()):
            raise ValueError("at least one event weight must be positive")


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


def run(sim: SimConfig) -> SimReport:
    started = time.perf_counter()
    rng = random.Random(sim.seed)
    cfg = sim.config
    state = empty_state(cfg)
    mirrors: dict[str, TreeOperad] = {}
    track_mirrors = sim.oracle_check_every > 0

    weights = {name: w for name, w in sim.event_weights.items() if w > 0}
    names = sorted(weights)

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
        root_list = [op for op in sorted(state.my_operads) if op not in state.g_hook_op]
        can_fire = {
            # g28 cannot fire here: Config makes max_fol >= max_oprd * max_args
            "new_operad": len(state.my_operads) < cfg.max_oprd,
            "compose_seq": len(root_list) >= 2,
        }
        if not any(can_fire[name] for name in names):
            if not state.my_operads:
                break
            deadlock_resets += 1
            deadlock_dumps.append(dump_state(state))
            trace.append(TraceReset())
            state = empty_state(cfg)
            mirrors = {}
            continue

        # compose parameters cannot even be drawn without two roots
        candidates = [n for n in names if n == "new_operad" or can_fire["compose_seq"]]
        name = rng.choices(candidates, weights=[weights[c] for c in candidates])[0]
        if name == "new_operad":
            event: Event = NewOperad(f"op{next_id}", rng.randint(1, cfg.max_args), 1)
        else:
            op1 = rng.choice(root_list)
            op2 = rng.choice([op for op in root_list if op != op1])
            ii = rng.choice(foliage_of(state, op1))
            event = ComposeSeq(op1, ii, op2)

        witness = None
        try:
            if isinstance(event, NewOperad):
                state = new_operad(state, event.op_id, event.arity, event.outs)
                next_id += 1
            else:
                state, witness = compose_seq_with_witness(state, event.op1, event.pos, event.op2)
        except GuardFailed as exc:
            guard_failures[exc.label] = guard_failures.get(exc.label, 0) + 1
            continue
        except OverflowFoliage:
            guard_failures["overflow"] = guard_failures.get("overflow", 0) + 1
            continue

        fired_count += 1
        fired[name] = fired.get(name, 0) + 1
        trace.append(event)

        bad = check_invariants(state)
        if bad:
            violations.append(Violation(fired_count, "invariant", tuple(bad), event, dump_state(state)))
        if witness is not None:
            laws = composition_law_violations(state, witness)
            if laws:
                violations.append(Violation(fired_count, "law", tuple(laws), event, dump_state(state)))

        if track_mirrors:
            if isinstance(event, NewOperad):
                mirrors[event.op_id] = elementary(event.op_id, event.arity)
            else:
                grafted = mirrors.pop(event.op2)
                mirrors[event.op1] = graft(mirrors[event.op1], event.pos, grafted)
            if fired_count % sim.oracle_check_every == 0:
                oracle_checks += 1
                for root_id in sorted(mirrors):
                    problems = compare_with_flat(state, root_id, mirrors[root_id])
                    if problems:
                        violations.append(
                            Violation(fired_count, "oracle", tuple(problems), event, dump_state(state))
                        )

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
        elif fields[0] == "new" and len(fields) == 4 and fields[2].isdigit() and fields[3].isdigit():
            events.append(NewOperad(fields[1], int(fields[2]), int(fields[3])))
        elif fields[0] == "compose" and len(fields) == 4 and fields[2].isdigit():
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
