"""Text and JSON serialization of machine states.

The text dump is line oriented and fully deterministic: one section
per relation, in a fixed order, entry lines sorted as plain strings,
position sets rendered with numerically sorted elements.  Dumping and
loading round-trip exactly, so dumps double as frozen test fixtures
and as the on-disk state format of the command line tool.

The entry grammar is one table, _FORMS: per section the pattern of an
entry, the key it holds and the value read off it.  _read_sections
reads every section through it, the decorated sections too, with one
rule for a malformed entry and one for a repeated key.

The bounds config is not part of a dump; the loaders take it
separately, defaulting to the standard bounds, read a dump into a raw
Sections record and build a FlatState only from a record that
check_invariants passes: a state from outside is checked where it enters.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from operator import itemgetter

from .core import _ID_RE, Config, StateFormatError
from .flat_machine import FlatState, Sections, check_invariants

_ARITY_RE = re.compile(r"([A-Za-z0-9_]+)->([0-9]+)\Z")
_PAIR_RE = re.compile(r"\(([0-9]+),([A-Za-z0-9_]+)\)\Z")
_SET_RE = re.compile(r"([A-Za-z0-9_]+)->\{([0-9,]*)\}\Z")
_HAT_RE = re.compile(r"\(([0-9]+),([A-Za-z0-9_]+)\)->([A-Za-z0-9_]+)\Z")
_MAP_RE = re.compile(r"([A-Za-z0-9_]+)->([A-Za-z0-9_]+)\Z")

_op, _pair = itemgetter(1), (lambda m: (int(m[1]), m[2]))


def _positions(m: re.Match, lineno: int) -> frozenset[int]:
    """The position set of an in or out entry, {1,2} without its braces in group 2."""
    if not m[2]:
        return frozenset()
    out = set()
    for tok in m[2].split(","):
        if not tok:
            raise StateFormatError(f"line {lineno}: malformed position set")
        out.add(int(tok))
    return frozenset(out)


# The entry grammar, in dump order.  section -> (the pattern of an entry
# body, the key of a match, unique within the section, the value of a
# match on line N, and the wording of a malformed and of a duplicate
# entry where it is not _read_sections' own).
_FORMS = {
    "operads": (_ID_RE, itemgetter(0), lambda m, n: None, "bad operad id {body!r}", "duplicate operad {key!r}"),
    "arity": (_ARITY_RE, _op, lambda m, n: int(m[2]), None, "duplicate arity for {key!r}"),
    "foliage": (_PAIR_RE, _pair, lambda m, n: None, None, "duplicate foliage entry {body!r}"),
    "in": (_SET_RE, _op, _positions, None, None),
    "out": (_SET_RE, _op, _positions, None, None),
    "hat": (_HAT_RE, _pair, lambda m, n: m[3], None, None),
    "hook": (_MAP_RE, _op, lambda m, n: m[2], None, None),
    "ghook": (_MAP_RE, _op, lambda m, n: m[2], None, None),
}
SECTIONS = tuple(_FORMS)


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


def _read_sections(entries: Iterable[tuple[int, str, str]], forms: dict) -> dict[str, dict]:
    """Each section's entries as {key: value} in line order, read by its row of forms.

    An entry that does not match its pattern, or repeats a key of its
    section, fails and names its line; the key is checked before the
    value is read.
    """
    read: dict[str, dict] = {section: {} for section in forms}
    for lineno, section, body in entries:
        pattern, key_of, value_of, malformed, duplicate = forms[section]
        m = pattern.match(body)
        if not m:
            malformed = malformed or "malformed {section} entry {body!r}"
            raise StateFormatError(f"line {lineno}: " + malformed.format(section=section, body=body))
        key, rows = key_of(m), read[section]
        if key in rows:
            duplicate = duplicate or "duplicate {section} entry for {key!r}"
            raise StateFormatError(f"line {lineno}: " + duplicate.format(section=section, body=body, key=key))
        rows[key] = value_of(m, lineno)
    return read


def _state_from_entries(entries: Iterable[tuple[int, str, str]], config: Config | None = None) -> Sections:
    """The record of the base-section entries that _read_entries yields."""
    read = _read_sections(entries, _FORMS)
    hats: dict[str, dict[int, str]] = {}
    for (p, root), member in read["hat"].items():
        hats.setdefault(root, {})[p] = member
    return Sections(
        config=config or Config(),
        my_operads=frozenset(read["operads"]),
        arity_op=read["arity"],
        foliage=frozenset(read["foliage"]),
        out_op=read["out"],
        in_op=read["in"],
        hats=hats,
        hook_op=read["hook"],
        g_hook_op=read["ghook"],
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
