"""Seeded random runs, replay, deadlock accounting, and report formatting."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from operadix import (
    ComposeSeq,
    Config,
    FlatState,
    GuardFailed,
    NewOperad,
    SimConfig,
    SimReport,
    StateFormatError,
    TraceReset,
    check_invariants,
    compare_with_flat,
    elementary,
    empty_state,
    foliage_of,
    format_report,
    format_trace,
    graft,
    hat_map_of,
    load_state,
    parse_trace,
    replay,
    report_to_json,
    roots,
    run,
)
from operadix import flat_machine, simulator
from operadix.tree_oracle import MirrorForest

# first verified run of seed 1, frozen; any drift in sampling, state
# evolution or guard behavior shows up here
GOLDEN_TRACE = (
    "new op0 1 1",
    "new op1 4 1",
    "new op2 4 1",
    "new op3 2 1",
    "compose op0 1 op2",
    "new op4 1 1",
    "new op5 3 1",
    "new op6 2 1",
    "new op7 1 1",
    "compose op6 1 op5",
)

GOLDEN_REPORT = """seed: 1
rng: mt19937
steps: 10
fired: compose_seq=2 new_operad=8
guard-failures: g1=1
deadlock-resets: 0
oracle-checks: 0
violations: 0
"""


def test_seed_one_golden_run():
    report = run(SimConfig(seed=1, max_steps=10))
    assert format_trace(report.trace).splitlines() == list(GOLDEN_TRACE)
    assert report.fired == {"new_operad": 8, "compose_seq": 2}
    assert report.guard_failures == {"g1": 1}
    assert report.deadlock_resets == 0
    assert report.violations == ()
    assert format_report(report) == GOLDEN_REPORT


# sha256 prefixes of format_report, format_trace and the deadlock dumps
# of 300-step runs, recorded once; a change to the sampler's random
# stream, to state evolution or to the dumps shows up here
STREAM_DIGESTS = [
    (1, 8, 0, "734f383118daefd7"),
    (1, 8, 1, "3f6573ef793ef4b0"),
    (1, 16, 0, "e2afc84ad2b2a00f"),
    (1, 16, 1, "851c67bf42d96bd2"),
    (1, 64, 0, "ae136ae89c6e0e81"),
    (1, 64, 1, "ee5e939faa6a1cdf"),
    (2, 8, 0, "ad62cdaf75c848d6"),
    (2, 8, 1, "d4ab8cdd44b84c36"),
    (2, 16, 0, "c291cca5b4aaa659"),
    (2, 16, 1, "2db5bda9234fc586"),
    (2, 64, 0, "0614004a055c5473"),
    (2, 64, 1, "a76ba2d15339e456"),
    (3, 8, 0, "e36c9475ede76744"),
    (3, 8, 1, "516bde71b68cf43c"),
    (3, 16, 0, "152fca502580bd18"),
    (3, 16, 1, "8b521bafab49e0a0"),
    (3, 64, 0, "7a72cd00ffbadeca"),
    (3, 64, 1, "3ce1653838701955"),
    (4, 8, 0, "066cefa1cc78f176"),
    (4, 8, 1, "38a0507124931653"),
    (4, 16, 0, "b9e401464291b1f7"),
    (4, 16, 1, "929c163c5aa9b523"),
    (4, 64, 0, "7b39d03c13f557ce"),
    (4, 64, 1, "f8d0a4bfd5d9f7f3"),
]


@pytest.mark.parametrize("seed, max_oprd, oracle_every, digest", STREAM_DIGESTS)
def test_random_stream_is_pinned(seed, max_oprd, oracle_every, digest):
    config = Config(max_oprd=max_oprd, max_fol=6 * max_oprd)
    report = run(SimConfig(seed=seed, max_steps=300, config=config, oracle_check_every=oracle_every))
    text = format_report(report) + format_trace(report.trace) + "".join(report.deadlock_states)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_runs_are_deterministic():
    sim = SimConfig(seed=77, max_steps=60, oracle_check_every=7)
    first, second = run(sim), run(sim)
    assert first == second  # elapsed_seconds is excluded from equality
    assert first.elapsed_seconds > 0
    assert run(SimConfig(seed=78, max_steps=60)).trace != first.trace


def test_trace_replays_to_consistent_state():
    report = run(SimConfig(seed=5, max_steps=40))
    state = replay(report.trace)
    assert check_invariants(state) == []
    fired_in_trace = {
        "new_operad": sum(isinstance(e, NewOperad) for e in report.trace),
        "compose_seq": sum(isinstance(e, ComposeSeq) for e in report.trace),
    }
    assert fired_in_trace == report.fired
    assert sum(isinstance(e, TraceReset) for e in report.trace) == report.deadlock_resets


def test_replay_known_trace():
    events = parse_trace(
        "new f 4 1\nnew g 3 1\nnew h 3 1\ncompose f 2 g\ncompose f 4 h\n"
    )
    state = replay(events)
    assert foliage_of(state, "f") == tuple(range(1, 9))


def test_replay_reports_failing_step():
    events = [NewOperad("f", 2), NewOperad("f", 3)]
    with pytest.raises(GuardFailed) as err:
        replay(events)
    assert err.value.label == "g3"
    assert err.value.step == 2


def test_trace_round_trip():
    events = [NewOperad("f", 2), NewOperad("g", 1), ComposeSeq("f", 2, "g")]
    assert parse_trace(format_trace(events)) == events


def test_parse_trace_tolerates_comments():
    events = parse_trace("# setup\nnew f 2 1  # binary\n\ncompose f 1 g\n")
    assert events == [NewOperad("f", 2), ComposeSeq("f", 1, "g")]


@pytest.mark.parametrize(
    "line",
    ["boom f 1 1", "new f", "new f x 1", "compose f x g", "new f 1 1 extra", "new f ² 1", "new f 1 ١", "compose f ² g"],
)
def test_parse_trace_rejects_malformed(line):
    with pytest.raises(StateFormatError):
        parse_trace(line + "\n")


def test_deadlock_reset_cycle():
    # one operad of one slot fills this machine completely
    tiny = Config(max_args=1, max_oprd=1, max_fol=1)
    report = run(SimConfig(seed=9, max_steps=5, config=tiny))
    assert report.steps == 5
    assert report.fired == {"new_operad": 5}
    assert report.deadlock_resets == 4
    assert len(report.deadlock_states) == 4
    for dump in report.deadlock_states:
        stuck = load_state(dump, tiny)
        # justified: creation is at the operad bound, composition needs
        # two roots
        assert len(stuck.my_operads) >= tiny.max_oprd
        assert len(roots(stuck)) < 2


def test_trace_with_resets_replays():
    tiny = Config(max_args=1, max_oprd=1, max_fol=1)
    report = run(SimConfig(seed=9, max_steps=5, config=tiny))
    lines = format_trace(report.trace)
    assert lines.count("reset") == 4
    state = replay(parse_trace(lines), tiny)
    # only the post-reset segment survives: a single fresh operad
    assert len(state.my_operads) == 1
    assert check_invariants(state) == []


def test_oracle_mirroring_runs_clean():
    report = run(SimConfig(seed=11, max_steps=80, oracle_check_every=4))
    assert report.oracle_checks == 20
    assert report.violations == ()


def swap_two_owners(state, root):
    """Swap the owners of root's lowest slot and the next slot of another member.

    The input sets are read off the hats, so both follow and SP1-SP3
    still hold: only the tree shape tells the swapped state from the one
    the events built.
    """
    hats = hat_map_of(state, root)
    first = min(hats)
    other = min((p for p in hats if hats[p] != hats[first]), default=None)
    if other is None:
        return state
    a, b = hats[first], hats[other]
    return replace(state, hats={**state.hats, root: {**state.hats[root], first: b, other: a}})


def patch_compose(monkeypatch, corrupt):
    """Make run() and replay() both compose through corrupt(state, op1, op2)."""
    compose = flat_machine.compose_seq_with_witness

    def corrupting(state, op1, ii, op2):
        after, witness = compose(state, op1, ii, op2)
        return corrupt(after, op1, op2), witness

    monkeypatch.setattr(simulator, "compose_seq_with_witness", corrupting)
    monkeypatch.setattr(flat_machine, "compose_seq_with_witness", corrupting)


def expected_violations(trace):
    """The invariant and oracle violations of a run, from its replayed states.

    Each fired event's state is replayed from the trace, checked in full
    by check_invariants and compared root by root with mirror trees
    grafted one by one.
    """
    expected, mirrors, step = [], {}, 0
    for end, event in enumerate(trace, start=1):
        if isinstance(event, TraceReset):
            mirrors = {}
            continue
        step += 1
        if isinstance(event, NewOperad):
            mirrors[event.op_id] = elementary(event.op_id, event.arity)
        else:
            grafted = mirrors.pop(event.op2)
            mirrors[event.op1] = graft(mirrors[event.op1], event.pos, grafted)
        state = replay(trace[:end])
        bad = check_invariants(state)
        if bad:
            expected.append((step, "invariant", tuple(bad)))
        for root in sorted(mirrors):
            problems = compare_with_flat(state, root, mirrors[root])
            if problems:
                expected.append((step, "oracle", tuple(problems)))
    return expected


def test_oracle_reports_an_owner_swap_root_by_root(monkeypatch):
    patch_compose(monkeypatch, lambda state, op1, op2: swap_two_owners(state, op1))
    report = run(SimConfig(seed=3, max_steps=120, oracle_check_every=1))
    assert report.oracle_checks == 120
    assert {v.kind for v in report.violations} == {"oracle"}
    assert [(v.step, v.kind, v.labels) for v in report.violations] == expected_violations(report.trace)


def test_an_owner_swap_is_reported_whatever_the_oracle_count(monkeypatch):
    # every disagreement is explained; oracle_check_every only sets the count
    patch_compose(monkeypatch, lambda state, op1, op2: swap_two_owners(state, op1))
    reports = [run(SimConfig(seed=3, max_steps=120, oracle_check_every=every)) for every in (0, 1, 7)]
    assert [r.oracle_checks for r in reports] == [0, 120, 17]
    assert reports[0].violations and {v.kind for v in reports[0].violations} == {"oracle"}
    assert reports[0].violations == reports[1].violations == reports[2].violations


@pytest.mark.parametrize("every", [0, 1, 2])
def test_verdict_matches_check_invariants_under_a_dropped_input_set(monkeypatch, every):
    # some composes hand op2's slots to op1, so op2's input set is dropped
    # (in_op is read off the hats) and op1's grows; later composes carry it on
    def dropping(state, op1, op2):
        if len(state.g_hook_op) % 2:
            row = {p: op1 if m == op2 else m for p, m in state.hats[op1].items()}
            return replace(state, hats={**state.hats, op1: row})
        return state

    patch_compose(monkeypatch, dropping)
    report = run(SimConfig(seed=3, max_steps=120, oracle_check_every=every))
    expected = expected_violations(report.trace)
    assert report.oracle_checks == (120 // every if every else 0)
    assert {kind for _, kind, _ in expected} == {"invariant", "oracle"}
    assert [(v.step, v.kind, v.labels) for v in report.violations if v.kind != "law"] == expected


def test_clean_run_calls_check_invariants_on_no_event(monkeypatch):
    # the forest gives every verdict, so check_invariants runs only on a failure
    calls = []
    check = simulator.check_invariants
    monkeypatch.setattr(simulator, "check_invariants", lambda state: calls.append(1) or check(state))
    report = run(SimConfig(seed=3, max_steps=300))
    assert report.steps == 300 and report.violations == ()
    assert calls == []


def state_of(forest, config):
    """The state whose stored relations are the forest's."""
    return FlatState(
        config=config,
        arity_op=dict(forest.arity_op),
        hats=dict(forest.hats),
        members=dict(forest.members),
    )


forest_plans = st.lists(
    st.tuples(st.booleans(), st.integers(1, 6), st.integers(0, 39), st.integers(0, 39), st.integers(0, 239)),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(plan=forest_plans)
def test_a_state_that_agrees_with_a_forest_is_well_formed(plan):
    # agreement implies every rule of check_invariants but the bounds,
    # which this Config leaves room for
    bounds = Config(max_args=6, max_oprd=40, max_fol=240)
    forest = MirrorForest()
    for serial, (create, arity, a, b, slot) in enumerate(plan):
        roots = sorted(forest.trees)
        if create or len(roots) < 2:
            forest.new(f"n{serial}", arity)
        else:
            op1 = roots[a % len(roots)]
            others = [r for r in roots if r != op1]
            leaves = len(forest.hats[op1])
            forest.graft(op1, 1 + slot % leaves, others[b % len(others)])
        state = state_of(forest, bounds)
        assert forest.agrees_with(state)
        assert check_invariants(state) == []
        assert simulator._verdict(state, True) == []


def _forest(*nodes):
    forest = MirrorForest()
    for label, arity in nodes:
        forest.new(label, arity)
    return forest


@pytest.mark.parametrize(
    "forest, config, edit, labels",
    [
        (_forest(("a-b", 2)), Config(), {}, ["inv10"]),
        (_forest(("a", 1), ("b", 1)), Config(max_args=1, max_oprd=1, max_fol=2), {}, ["inv10"]),
        (_forest(("a", 7)), Config(), {}, ["inv30"]),
        # True == 1, so the forest agrees; only the arity rule sees the bool
        (_forest(("a", 1)), Config(), {"arity_op": {"a": True}}, ["inv30"]),
        (_forest(("a", 3), ("b", 2)), Config(max_args=2, max_oprd=2, max_fol=4), {}, ["inv30", "inv40"]),
    ],
)
def test_verdict_names_the_bounds_agreement_leaves_open(forest, config, edit, labels):
    state = replace(state_of(forest, config), **edit)
    assert forest.agrees_with(state)
    assert check_invariants(state) == labels
    assert simulator._verdict(state, True) == labels


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 1, "max_steps": 0},
        {"seed": 1, "max_steps": 5, "oracle_check_every": -1},
    ],
)
def test_sim_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_report_json_shape():
    report = run(SimConfig(seed=1, max_steps=10))
    data = report_to_json(report)
    assert data["seed"] == 1 and data["rng"] == "mt19937"
    assert data["trace"] == list(GOLDEN_TRACE)
    assert "elapsed_seconds" not in data
    assert "elapsed_seconds" in report_to_json(report, include_timing=True)


def test_report_timing_line_is_optional():
    report = run(SimConfig(seed=1, max_steps=10))
    assert "elapsed" not in format_report(report)
    assert "elapsed:" in format_report(report, include_timing=True)
