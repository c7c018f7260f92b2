"""Bounds, config parsing, and the shared error types."""

import dataclasses

import pytest

from operadix import Config, ConfigError, GuardFailed, ParseError
from operadix.core import config_from_entries, is_operad_id, parse_config_entries


def test_default_config_values():
    cfg = Config()
    assert cfg.max_args == 6
    assert not hasattr(cfg, "max_out")  # every operad has the one output 1
    assert cfg.max_oprd == 8
    assert cfg.max_fol == 48


def test_config_is_frozen():
    cfg = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_args = 7


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_args": 0},
        {"max_oprd": 0},
        {"max_args": 7},  # 8 operads of 7 inputs need 56 positions
        {"max_args": 2, "max_oprd": 3, "max_fol": 5},
        {"max_fol": 5},  # below max_args, so below max_oprd * max_args
        {"max_fol": 47},  # below max_oprd * max_args
    ],
)
def test_config_axiom_violations(kwargs):
    with pytest.raises(ConfigError):
        Config(**kwargs)


def test_config_small_but_consistent():
    cfg = Config(max_args=2, max_oprd=3, max_fol=6)
    assert cfg.max_fol == 6


@pytest.mark.parametrize(
    "token,ok",
    [
        ("f", True),
        ("op12", True),
        ("_x", True),
        ("1op", True),
        ("", False),
        ("a b", False),
        ("a-b", False),
        ("op!", False),
    ],
)
def test_is_operad_id(token, ok):
    assert is_operad_id(token) is ok


def test_parse_config_entries():
    text = "# bounds\nmax_args = 4\n\nmax_oprd=2\n"
    assert parse_config_entries(text) == {"max_args": "4", "max_oprd": "2"}


def test_parse_config_entries_rejects_duplicates():
    with pytest.raises(ConfigError):
        parse_config_entries("max_args=4\nmax_args=5\n")


def test_parse_config_entries_rejects_bare_line():
    with pytest.raises(ConfigError):
        parse_config_entries("max_args\n")


def test_config_from_entries():
    cfg = config_from_entries({"max_args": "4", "max_oprd": "2", "max_fol": "8"})
    assert cfg == Config(max_args=4, max_oprd=2, max_fol=8)


def test_config_from_entries_defaults_missing_keys():
    assert config_from_entries({}) == Config()


def test_config_from_entries_rejects_unknown_key():
    with pytest.raises(ConfigError):
        config_from_entries({"max_arg": "4"})
    with pytest.raises(ConfigError, match="unknown config key 'max_out'"):
        config_from_entries({"max_out": "1"})


def test_config_from_entries_rejects_non_integer():
    with pytest.raises(ConfigError):
        config_from_entries({"max_args": "four"})


@pytest.mark.parametrize("value", ["\u0661", " +8 ", "+8", "-1", "1_6", "\u00b2", "8 ", "0x10"])
def test_config_from_entries_takes_only_ascii_digits(value):
    # int() accepts all but "\u00b2" and "0x10", and reads 1_6 as 16
    with pytest.raises(ConfigError, match="needs an integer"):
        config_from_entries({"max_oprd": value})


def test_config_from_entries_rejects_alphabet():
    # no command reads an alphabet from a config file: decorated dumps carry their own
    with pytest.raises(ConfigError, match="unknown config key 'alphabet'"):
        config_from_entries({"alphabet": "a,b,c,d,e,f"})


def test_config_from_entries_overrides():
    cfg = config_from_entries({"max_args": "4"}, max_args=5, max_fol=None)
    assert cfg.max_args == 5
    assert cfg.max_fol == 48


def test_guard_failed_carries_label():
    err = GuardFailed("g3", "operad id already in use")
    assert err.label == "g3"
    assert err.step is None
    assert str(err) == "[g3] operad id already in use"


def test_parse_error_carries_position():
    err = ParseError("unexpected character", line=2, col=7)
    assert (err.line, err.col) == (2, 7)
