"""Text and JSON serialization of machine states.

The text dump is line oriented and fully deterministic: one section
per relation, in a fixed order, entry lines sorted as plain strings,
position sets rendered with numerically sorted elements.  Dumping and
loading round-trip exactly, so dumps double as frozen test fixtures
and as the on-disk state format of the command line tool.

The bounds config is not part of a dump; the loaders take it
separately, defaulting to the standard bounds, read a dump into a raw
Sections record and build a FlatState only from a record that
check_invariants passes: a state from outside is checked where it enters.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

from .core import Config, StateFormatError, is_operad_id
from .flat_machine import FlatState, Sections, check_invariants

SECTIONS = ("operads", "arity", "foliage", "in", "out", "hat", "hook", "ghook")

_ARITY_RE = re.compile(r"([A-Za-z0-9_]+)->([0-9]+)\Z")
_PAIR_RE = re.compile(r"\(([0-9]+),([A-Za-z0-9_]+)\)\Z")
_SET_RE = re.compile(r"([A-Za-z0-9_]+)->\{([0-9,]*)\}\Z")
_HAT_RE = re.compile(r"\(([0-9]+),([A-Za-z0-9_]+)\)->([A-Za-z0-9_]+)\Z")
_MAP_RE = re.compile(r"([A-Za-z0-9_]+)->([A-Za-z0-9_]+)\Z")


def _set_text(positions) -> str:
    return "{" + ",".join(str(p) for p in sorted(positions)) + "}"


def dump_state(state: FlatState | Sections) -> str:
    entries: dict[str, list[str]] = {name: [] for name in SECTIONS}
    entries["operads"] = [f"operads: {op}" for op in state.my_operads]
    entries["arity"] = [f"arity: {op}->{rr}" for op, rr in state.arity_op.items()]
    entries["foliage"] = [f"foliage: ({p},{op})" for p, op in state.foliage]
    entries["in"] = [f"in: {op}->{_set_text(ps)}" for op, ps in state.in_op.items()]
    entries["out"] = [f"out: {op}->{_set_text(ps)}" for op, ps in state.out_op.items()]
    entries["hat"] = [f"hat: ({p},{op})->{m}" for op, row in state.hats.items() for p, m in row.items()]
    entries["hook"] = [f"hook: {a}->{b}" for a, b in state.hook_op.items()]
    entries["ghook"] = [f"ghook: {a}->{b}" for a, b in state.g_hook_op.items()]
    lines: list[str] = []
    for name in SECTIONS:
        lines.append(f"[{name}]")
        lines.extend(sorted(entries[name]))
    return "\n".join(lines) + "\n"


def _parse_positions(text: str, lineno: int) -> frozenset[int]:
    if not text:
        return frozenset()
    out = set()
    for tok in text.split(","):
        if not tok:
            raise StateFormatError(f"line {lineno}: malformed position set")
        out.add(int(tok))
    return frozenset(out)


def _read_entries(text: str, sections: tuple[str, ...]) -> Iterator[tuple[int, str, str]]:
    """Yield (lineno, section, body) for each entry line of a dump.

    Blank lines and ``#`` comments are skipped, and a header must name
    one of ``sections``.  This is the line grammar of every dump; the
    callers parse the bodies.
    """
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in sections:
                raise StateFormatError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise StateFormatError(f"line {lineno}: entry before any section header")
        prefix = f"{section}: "
        if not line.startswith(prefix):
            raise StateFormatError(f"line {lineno}: expected a {section!r} entry, got {line!r}")
        yield lineno, section, line[len(prefix):]


def load_state(text: str, config: Config | None = None) -> FlatState:
    """Parse a dump back into a state, which must be well-formed.

    Raises StateFormatError on a line that breaks the format, and on a
    state that check_invariants flags, naming its labels.
    """
    return _well_formed(_read_state(text, config))


def _read_state(text: str, config: Config | None = None) -> Sections:
    """The record of a dump, checked for the line format only."""
    return _state_from_entries(_read_entries(text, SECTIONS), config)


def _well_formed(record: Sections) -> FlatState:
    bad = check_invariants(record)
    if bad:
        raise StateFormatError(f"state violates {', '.join(bad)}")
    return record.to_state()


def _state_from_entries(entries: Iterable[tuple[int, str, str]], config: Config | None = None) -> Sections:
    """The record of the base-section entries that _read_entries yields."""
    my_operads: set[str] = set()
    arity_op: dict[str, int] = {}
    foliage: set[tuple[int, str]] = set()
    out_op: dict[str, frozenset[int]] = {}
    in_op: dict[str, frozenset[int]] = {}
    hats: dict[str, dict[int, str]] = {}
    hook_op: dict[str, str] = {}
    g_hook_op: dict[str, str] = {}

    for lineno, section, body in entries:
        if section == "operads":
            if not is_operad_id(body):
                raise StateFormatError(f"line {lineno}: bad operad id {body!r}")
            if body in my_operads:
                raise StateFormatError(f"line {lineno}: duplicate operad {body!r}")
            my_operads.add(body)
        elif section == "arity":
            m = _ARITY_RE.match(body)
            if not m:
                raise StateFormatError(f"line {lineno}: malformed arity entry {body!r}")
            op = m.group(1)
            if op in arity_op:
                raise StateFormatError(f"line {lineno}: duplicate arity for {op!r}")
            arity_op[op] = int(m.group(2))
        elif section == "foliage":
            m = _PAIR_RE.match(body)
            if not m:
                raise StateFormatError(f"line {lineno}: malformed foliage entry {body!r}")
            pair = (int(m.group(1)), m.group(2))
            if pair in foliage:
                raise StateFormatError(f"line {lineno}: duplicate foliage entry {body!r}")
            foliage.add(pair)
        elif section in ("in", "out"):
            m = _SET_RE.match(body)
            if not m:
                raise StateFormatError(f"line {lineno}: malformed {section} entry {body!r}")
            op = m.group(1)
            target = in_op if section == "in" else out_op
            if op in target:
                raise StateFormatError(f"line {lineno}: duplicate {section} entry for {op!r}")
            target[op] = _parse_positions(m.group(2), lineno)
        elif section == "hat":
            m = _HAT_RE.match(body)
            if not m:
                raise StateFormatError(f"line {lineno}: malformed hat entry {body!r}")
            p, root = int(m.group(1)), m.group(2)
            row = hats.setdefault(root, {})
            if p in row:
                raise StateFormatError(f"line {lineno}: duplicate hat entry for {(p, root)}")
            row[p] = m.group(3)
        else:
            m = _MAP_RE.match(body)
            if not m:
                raise StateFormatError(f"line {lineno}: malformed {section} entry {body!r}")
            op = m.group(1)
            target = hook_op if section == "hook" else g_hook_op
            if op in target:
                raise StateFormatError(f"line {lineno}: duplicate {section} entry for {op!r}")
            target[op] = m.group(2)

    return Sections(
        config=config or Config(),
        my_operads=frozenset(my_operads),
        arity_op=arity_op,
        foliage=frozenset(foliage),
        out_op=out_op,
        in_op=in_op,
        hats=hats,
        hook_op=hook_op,
        g_hook_op=g_hook_op,
    )


def state_to_json(state: FlatState | Sections) -> dict:
    """The same sections as the text dump, as JSON-ready values."""
    return {
        "operads": sorted(state.my_operads),
        "arity": {op: rr for op, rr in sorted(state.arity_op.items())},
        "foliage": [[p, op] for p, op in sorted(state.foliage, key=lambda e: (e[1], e[0]))],
        "in": {op: sorted(ps) for op, ps in sorted(state.in_op.items())},
        "out": {op: sorted(ps) for op, ps in sorted(state.out_op.items())},
        "hat": [[p, op, m] for op in sorted(state.hats) for p, m in sorted(state.hats[op].items())],
        "hook": {a: b for a, b in sorted(state.hook_op.items())},
        "ghook": {a: b for a, b in sorted(state.g_hook_op.items())},
    }
