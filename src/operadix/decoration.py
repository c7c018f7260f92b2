"""Decorated operads: slots carry symbols, the machine carries shape.

The decorated state wraps a plain machine state and adds one symbol
per open slot, drawn from a fixed alphabet, plus one symbol for each
root's output.  The binding contract is that the decorated slot map of
every operad has exactly the slots of the base state as its domain.
Decorations ride along through composition, relabelled by the base
witness's moved(), the one rule that also moves the base slots, so
erasing the decorations
of any reachable decorated state gives back exactly the base state of
the same event sequence.

The symbol that sat on the grafting slot disappears together with the
slot, as does the output symbol of the grafted root.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, replace

from .core import BoundsError, Config, GuardFailed, OperadId, Position, StateFormatError
from .flat_machine import FlatState, compose_seq_with_witness, empty_state, new_operad
from .serialize import SECTIONS, _read_entries, _state_from_entries, _well_formed, dump_state, state_to_json

_SYMBOL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class DecoratedState:
    base: FlatState
    alphabet: tuple[str, ...]
    in_op_x: dict[OperadId, dict[Position, str]]
    out_op_x: dict[OperadId, str]


def default_alphabet(config: Config) -> tuple[str, ...]:
    letters = tuple(string.ascii_lowercase)
    if config.max_args <= len(letters):
        return letters[: config.max_args]
    extra = tuple(f"x{k}" for k in range(1, config.max_args - len(letters) + 1))
    return letters + extra


def _require_alphabet(alphabet: tuple[str, ...], config: Config) -> None:
    if len(alphabet) < config.max_args:
        raise BoundsError(
            f"alphabet has {len(alphabet)} symbols, needs at least max_args = {config.max_args}"
        )
    if len(set(alphabet)) != len(alphabet):
        raise BoundsError("alphabet symbols must be distinct")
    for symbol in alphabet:
        if not _SYMBOL_RE.match(symbol):
            raise BoundsError(f"symbol {symbol!r} must be letters, digits or underscores")


def empty_decorated(config: Config | None = None, alphabet: tuple[str, ...] | None = None) -> DecoratedState:
    cfg = config or Config()
    chosen = tuple(alphabet) if alphabet is not None else default_alphabet(cfg)
    _require_alphabet(chosen, cfg)
    return DecoratedState(base=empty_state(cfg), alphabet=chosen, in_op_x={}, out_op_x={})


def new_operad_x(
    state: DecoratedState,
    op_id: OperadId,
    arity: int,
    outs: int = 1,
    decor: dict[Position, str] | None = None,
    out_symbol: str | None = None,
) -> DecoratedState:
    """Create an operad together with its slot decorations.

    Base guards run first.  Their g4 caps the arity at max_args, so
    the default decoration, the first ``arity`` alphabet symbols in
    order, always exists.
    """
    base = new_operad(state.base, op_id, arity, outs)
    if decor is None:
        decor = {p: state.alphabet[p - 1] for p in range(1, arity + 1)}
    for slot in decor:
        if type(slot) is not int:
            raise GuardFailed("decor-domain", f"decoration slot {slot!r} is not an int")
    if set(decor) != set(range(1, arity + 1)):
        raise GuardFailed("decor-domain", f"decoration must cover slots 1..{arity}, got {sorted(decor)}")
    symbols = list(decor.values())
    for symbol in symbols:
        if symbol not in state.alphabet:
            raise GuardFailed("decor-symbol", f"symbol {symbol!r} is not in the alphabet")
    if len(set(symbols)) != len(symbols):
        raise GuardFailed("decor-injective", f"decoration of {op_id!r} reuses a symbol")
    chosen_out = out_symbol if out_symbol is not None else state.alphabet[0]
    if chosen_out not in state.alphabet:
        raise GuardFailed("decor-symbol", f"symbol {chosen_out!r} is not in the alphabet")
    return replace(
        state,
        base=base,
        in_op_x={**state.in_op_x, op_id: dict(decor)},
        out_op_x={**state.out_op_x, op_id: chosen_out},
    )


def compose_seq_x(state: DecoratedState, op1: OperadId, ii: Position, op2: OperadId) -> DecoratedState:
    """Graft op2 into slot ii of op1, transporting decorations.

    Slots keep their symbols while the witness's moved() relabels
    them, exactly as it relabels the base slot map; the symbol of
    the grafting slot itself is consumed.
    """
    members = state.base.members
    base, witness = compose_seq_with_witness(state.base, op1, ii, op2)
    new_in_x = dict(state.in_op_x)
    for member in (op1, *members.get(op1, ())):
        new_in_x[member] = witness.moved(state.in_op_x.get(member, {}), {})
    for member in (op2, *members.get(op2, ())):
        new_in_x[member] = witness.moved({}, state.in_op_x.get(member, {}))
    return replace(
        state,
        base=base,
        in_op_x=new_in_x,
        out_op_x={op: s for op, s in state.out_op_x.items() if op != op2},
    )


def erase(state: DecoratedState) -> FlatState:
    """Forget the decorations; what remains is the base machine state."""
    return state.base


def check_gluing(state: DecoratedState) -> list[str]:
    """Where the decoration layer disagrees with the base state.

    For every operad the decorated slots must be exactly the base
    input slots, symbols must come from the alphabet and not repeat
    within one operad, and output symbols must exist exactly for the
    operads that still have an output.
    """
    problems: list[str] = []
    base = state.base
    in_op = base.in_op
    for op in sorted(in_op):
        if op not in state.in_op_x:
            problems.append(f"{op}: no slot decoration")
    for op in sorted(state.in_op_x):
        if op not in in_op:
            problems.append(f"{op}: decorated but unknown to the base state")
    for op in sorted(set(in_op) & set(state.in_op_x)):
        decor = state.in_op_x[op]
        if set(decor) != set(in_op[op]):
            problems.append(f"{op}: decorated slots {sorted(decor)} != base slots {sorted(in_op[op])}")
        symbols = list(decor.values())
        if len(set(symbols)) != len(symbols):
            problems.append(f"{op}: slot symbols repeat")
        for symbol in symbols:
            if symbol not in state.alphabet:
                problems.append(f"{op}: symbol {symbol!r} is not in the alphabet")
    out_op = base.out_op
    for op in sorted(out_op):
        if op not in state.out_op_x:
            problems.append(f"{op}: no output symbol")
    for op in sorted(state.out_op_x):
        if op not in out_op:
            problems.append(f"{op}: output symbol but no output")
        elif state.out_op_x[op] not in state.alphabet:
            problems.append(f"{op}: symbol {state.out_op_x[op]!r} is not in the alphabet")
    return problems


def _decor_text(decor: dict[Position, str]) -> str:
    return "{" + ",".join(f"{p}:{s}" for p, s in sorted(decor.items())) + "}"


def dump_decorated(state: DecoratedState) -> str:
    """Base dump plus [alphabet], [inx] and [outx] sections."""
    lines = [dump_state(state.base).rstrip("\n")]
    lines.append("[alphabet]")
    lines.append(f"alphabet: {','.join(state.alphabet)}")
    lines.append("[inx]")
    lines.extend(sorted(f"inx: {op}->{_decor_text(d)}" for op, d in state.in_op_x.items()))
    lines.append("[outx]")
    lines.extend(sorted(f"outx: {op}->{s}" for op, s in state.out_op_x.items()))
    return "\n".join(lines) + "\n"


_INX_RE = re.compile(r"([A-Za-z0-9_]+)->\{([0-9A-Za-z_,:]*)\}\Z")
_OUTX_RE = re.compile(r"([A-Za-z0-9_]+)->([A-Za-z0-9_]+)\Z")

_EXTRA_SECTIONS = ("alphabet", "inx", "outx")


def load_decorated(text: str, config: Config | None = None) -> DecoratedState:
    """Parse a decorated dump; its base state must be well-formed, as in load_state."""
    decorated = _read_decorated(text, config)
    return replace(decorated, base=_well_formed(decorated.base))


def _read_decorated(text: str, config: Config | None = None) -> DecoratedState:
    """The decorated dump, its base a raw Sections record; checked for the format and the alphabet only."""
    entries = list(_read_entries(text, SECTIONS + _EXTRA_SECTIONS))
    base = _state_from_entries((e for e in entries if e[1] in SECTIONS), config)
    alphabet: tuple[str, ...] | None = None
    in_op_x: dict[str, dict[int, str]] = {}
    out_op_x: dict[str, str] = {}
    for lineno, section, body in entries:
        if section == "alphabet":
            if alphabet is not None:
                raise StateFormatError(f"line {lineno}: alphabet given twice")
            alphabet = tuple(body.split(","))
        elif section == "inx":
            m = _INX_RE.match(body)
            if not m:
                raise StateFormatError(f"line {lineno}: malformed inx entry {body!r}")
            op = m.group(1)
            if op in in_op_x:
                raise StateFormatError(f"line {lineno}: duplicate inx entry for {op!r}")
            decor: dict[int, str] = {}
            if m.group(2):
                for item in m.group(2).split(","):
                    pos_text, sep, symbol = item.partition(":")
                    if not sep or not pos_text.isdigit() or not _SYMBOL_RE.match(symbol):
                        raise StateFormatError(f"line {lineno}: malformed slot decoration {item!r}")
                    pos = int(pos_text)
                    if pos in decor:
                        raise StateFormatError(f"line {lineno}: slot {pos} decorated twice")
                    decor[pos] = symbol
            in_op_x[op] = decor
        elif section == "outx":
            m = _OUTX_RE.match(body)
            if not m:
                raise StateFormatError(f"line {lineno}: malformed outx entry {body!r}")
            op = m.group(1)
            if op in out_op_x:
                raise StateFormatError(f"line {lineno}: duplicate outx entry for {op!r}")
            out_op_x[op] = m.group(2)

    if alphabet is None:
        raise StateFormatError("decorated dump is missing the [alphabet] section")
    _require_alphabet(alphabet, base.config)
    return DecoratedState(base=base, alphabet=alphabet, in_op_x=in_op_x, out_op_x=out_op_x)


def decorated_to_json(state: DecoratedState) -> dict:
    out = state_to_json(state.base)
    out["alphabet"] = list(state.alphabet)
    out["inx"] = {
        op: [[p, s] for p, s in sorted(decor.items())]
        for op, decor in sorted(state.in_op_x.items())
    }
    out["outx"] = {op: s for op, s in sorted(state.out_op_x.items())}
    return out
