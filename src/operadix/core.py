"""Shared vocabulary for the whole package: bounds, identifiers, errors.

Everything that touches a composite structure speaks in terms of two
primitive kinds of token.  An operad identifier is a non-empty word over
letters, digits and underscores.  A position is a 1-based integer label
for one input slot of a composite; positions are dense bookkeeping
labels, not tree addresses, and get relabelled on every composition.

The bounds in :class:`Config` make every state space finite so that an
exhaustive or randomized check terminates.  They are not mathematical
limits, only search-budget knobs.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from dataclasses import dataclass, fields as dataclass_fields

OperadId = str
Position = int

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_DIGITS_RE = re.compile(r"[0-9]+\Z")


def is_operad_id(name: object) -> bool:
    """True when *name* is a well-formed operad identifier token."""
    return isinstance(name, str) and bool(_ID_RE.match(name))


class OperadError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(OperadError):
    """A bound is inconsistent or a config file is malformed."""


class BoundsError(OperadError):
    """An argument fell outside the range a query or builder accepts."""


class GuardFailed(OperadError):
    """An event was rejected before touching the state.

    ``label`` names the violated guard.  Labels are stable strings and
    part of the public surface: the simulator aggregates failure counts
    by label and replay errors carry them through.
    """

    def __init__(self, label: str, message: str, step: int | None = None):
        self.label = label
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        self.message = message
        super().__init__(f"[{label}] {message}")


class ParseError(OperadError):
    """Lexical or syntax error in an expression program."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class ElaborationError(OperadError):
    """A parsed expression cannot be turned into an event sequence."""


class CarrierMismatch(OperadError):
    """Finite functions over different carriers were mixed."""


class StateFormatError(OperadError):
    """A state dump broke the section/entry format, or its state is not well-formed."""


@dataclass(frozen=True)
class Config:
    """Finite bounds for the grafting machine.

    max_args  largest arity a freshly created operad may have
    max_oprd  how many operads may coexist
    max_fol   how many positions may coexist across all composites,
              at least max_oprd * max_args
    """

    max_args: int = 6
    max_oprd: int = 8
    max_fol: int = 48

    def __post_init__(self) -> None:
        if self.max_args < 1:
            raise ConfigError("max_args must be at least 1")
        if self.max_oprd < 1:
            raise ConfigError("max_oprd must be at least 1")
        if self.max_fol < self.max_oprd * self.max_args:
            raise ConfigError(
                "max_fol must cover max_oprd operads of max_args inputs "
                f"(need {self.max_oprd * self.max_args}, have {self.max_fol})"
            )


def _arities_ok(arities: Collection[object], config: Config) -> bool:
    """The arity rule, shared by g4, inv30 and elaborate: every value is an int in 1..max_args."""
    return {int}.issuperset(map(type, arities)) and (
        not arities or (min(arities) >= 1 and max(arities) <= config.max_args)
    )


_CONFIG_KEYS = tuple(f.name for f in dataclass_fields(Config))


def parse_config_entries(text: str) -> dict[str, str]:
    """Key-value lines, ``#`` starts a comment, blank lines ignored."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def config_from_entries(entries: dict[str, str], **overrides: int | None) -> Config:
    """Build a Config from textual entries plus keyword overrides.

    Values must be ASCII digits, as in programs, traces and dumps.
    Overrides with value None are ignored, so CLI flags can be passed
    through unconditionally.
    """
    fields: dict[str, int] = {}
    for key, value in entries.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if not _DIGITS_RE.match(value):
            raise ConfigError(f"config key {key!r} needs an integer, got {value!r}")
        fields[key] = int(value)
    for key, value in overrides.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            fields[key] = value
    return Config(**fields)

