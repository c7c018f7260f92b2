"""Composition of finite functions, where the axioms become computable.

A FiniteFn is a total function (carrier)^arity -> carrier over the
carrier {0..carrier-1}, stored as a dense table in row-major order
with the first argument most significant.  Partial composition plugs
one function into one slot of another; on these tables the operad
axioms (sequential, parallel, identity) are finite statements that a
sweep can check exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import BoundsError, CarrierMismatch

_TABLE_CAP = 1 << 20


@dataclass(frozen=True)
class FiniteFn:
    carrier: int
    arity: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.carrier) is not int or type(self.arity) is not int:
            raise BoundsError(f"carrier and arity must be ints, got {self.carrier!r} and {self.arity!r}")
        if self.carrier < 1:
            raise BoundsError(f"carrier size must be positive, got {self.carrier}")
        if self.arity < 0:
            raise BoundsError(f"arity must be non-negative, got {self.arity}")
        size = self.carrier**self.arity
        if size > _TABLE_CAP:
            raise BoundsError(f"table would need {size} entries, cap is {_TABLE_CAP}")
        try:
            table = tuple(self.table)
        except TypeError:
            raise BoundsError(f"table must be a sequence of ints, got {self.table!r}") from None
        if len(table) != size:
            raise BoundsError(f"table needs {size} entries, got {len(table)}")
        for value in table:
            if type(value) is not int:
                raise BoundsError(f"table value {value!r} is not an int")
            if not 0 <= value < self.carrier:
                raise BoundsError(f"table value {value} outside carrier 0..{self.carrier - 1}")
        object.__setattr__(self, "table", table)

    @classmethod
    def _trusted(cls, carrier: int, arity: int, table: tuple[int, ...]) -> FiniteFn:
        """A FiniteFn built without the checks, for tables valid by construction."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "carrier", carrier)
        object.__setattr__(fn, "arity", arity)
        object.__setattr__(fn, "table", table)
        return fn

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise BoundsError(f"expected {self.arity} arguments, got {len(args)}")
        index = 0
        for arg in args:
            if type(arg) is not int:
                raise BoundsError(f"argument {arg!r} is not an int")
            if not 0 <= arg < self.carrier:
                raise BoundsError(f"argument {arg} outside carrier 0..{self.carrier - 1}")
            index = index * self.carrier + arg
        return self.table[index]


def identity_fn(carrier: int) -> FiniteFn:
    return FiniteFn(carrier, 1, tuple(range(carrier)))


def constant_fn(carrier: int, value: int) -> FiniteFn:
    if not 0 <= value < carrier:
        raise BoundsError(f"constant {value} outside carrier 0..{carrier - 1}")
    return FiniteFn(carrier, 0, (value,))


def circ(f: FiniteFn, ii: int, g: FiniteFn) -> FiniteFn:
    """Plug g into slot ii of f; the result has arity n + m - 1.

    m = 0 is allowed: a constant fills the slot and the result just
    loses one argument.

    The result is built by copying rows of f's table.  Cut it into rows
    of s**(n - ii) entries, one row per value of the first ii arguments;
    for each value of the first ii - 1 arguments, and for each entry v
    of g's table in order, the row whose ii-th argument is v is
    appended.  The cost is O(result entries): one slice copy per prefix
    and per entry of g, with no per-entry argument checks, and every
    value is copied from f's already validated table.
    """
    if f.carrier != g.carrier:
        raise CarrierMismatch(f"carriers differ: {f.carrier} vs {g.carrier}")
    if f.arity < 1:
        raise BoundsError("cannot compose into a constant, it has no slots")
    if not 1 <= ii <= f.arity:
        raise BoundsError(f"slot must be in 1..{f.arity}, got {ii}")
    s = f.carrier
    n, m = f.arity, g.arity
    result_arity = n + m - 1
    if s**result_arity > _TABLE_CAP:
        raise BoundsError(f"result table would need {s**result_arity} entries, cap is {_TABLE_CAP}")
    stride = s ** (n - ii)
    rows = [f.table[start : start + stride] for start in range(0, len(f.table), stride)]
    table: list[int] = []
    for base in range(0, len(rows), s):
        for v in g.table:
            table += rows[base + v]
    return FiniteFn._trusted(s, result_arity, tuple(table))


def check_sequential_axiom(f: FiniteFn, g: FiniteFn, h: FiniteFn, ii: int, jj: int) -> bool:
    """(f o_ii g) o_(ii-1+jj) h  ==  f o_ii (g o_jj h)."""
    return circ(circ(f, ii, g), ii - 1 + jj, h) == circ(f, ii, circ(g, jj, h))


def check_parallel_axiom(f: FiniteFn, g: FiniteFn, h: FiniteFn, ii: int, kk: int) -> bool:
    """(f o_ii g) o_(kk-1+m) h  ==  (f o_kk h) o_ii g,  for ii < kk, m = arity(g)."""
    if not ii < kk:
        raise BoundsError(f"parallel axiom needs ii < kk, got {ii} and {kk}")
    return circ(circ(f, ii, g), kk - 1 + g.arity, h) == circ(circ(f, kk, h), ii, g)


def check_identity_axiom(f: FiniteFn, ii: int) -> bool:
    """f o_ii id == f  and  id o_1 f == f."""
    one = identity_fn(f.carrier)
    return circ(f, ii, one) == f and circ(one, 1, f) == f


def all_functions(carrier: int, arity: int):
    """Every FiniteFn of the given shape, in table order."""
    size = carrier**arity
    if carrier**size > 10_000_000:
        raise BoundsError(f"would enumerate {carrier}**{size} functions, pick smaller bounds")
    for table in itertools.product(range(carrier), repeat=size):
        yield FiniteFn(carrier, arity, table)


@dataclass(frozen=True)
class SweepResult:
    ok: bool
    cases: int
    counterexample: str | None = None


def _function_pool(carrier: int, max_arity: int) -> list[FiniteFn]:
    if max_arity < 1:
        raise BoundsError(f"max arity must be positive, got {max_arity}")
    pool: list[FiniteFn] = []
    for arity in range(1, max_arity + 1):
        pool.extend(all_functions(carrier, arity))
    return pool


def _guard_sweep_size(pool: list[FiniteFn]) -> None:
    weighted = sum(fn.arity for fn in pool)
    if weighted * weighted * len(pool) > 2_000_000:
        raise BoundsError(
            f"sweep over {len(pool)} functions is too large to finish, pick smaller bounds"
        )


def sweep_sequential(carrier: int, max_arity: int) -> SweepResult:
    """Exhaustive sequential-axiom check over every function triple."""
    pool = _function_pool(carrier, max_arity)
    _guard_sweep_size(pool)
    cases = 0
    for f in pool:
        for ii in range(1, f.arity + 1):
            for g in pool:
                fg = circ(f, ii, g)
                for jj in range(1, g.arity + 1):
                    for h in pool:
                        cases += 1
                        # check_sequential_axiom with f o_ii g computed once per (f, ii, g)
                        if circ(fg, ii - 1 + jj, h) != circ(f, ii, circ(g, jj, h)):
                            return SweepResult(
                                False,
                                cases,
                                f"f={format_fn(f)} g={format_fn(g)} h={format_fn(h)} ii={ii} jj={jj}",
                            )
    return SweepResult(True, cases)


def sweep_parallel(carrier: int, max_arity: int) -> SweepResult:
    """Exhaustive parallel-axiom check over every function triple."""
    pool = _function_pool(carrier, max_arity)
    _guard_sweep_size(pool)
    cases = 0
    for f in pool:
        for ii in range(1, f.arity + 1):
            for kk in range(ii + 1, f.arity + 1):
                fh_all = [circ(f, kk, h) for h in pool]
                for g in pool:
                    fg = circ(f, ii, g)
                    for h, fh in zip(pool, fh_all):
                        cases += 1
                        # check_parallel_axiom with f o_ii g computed once per (f, ii, g)
                        # and f o_kk h once per (f, kk, h)
                        if circ(fg, kk - 1 + g.arity, h) != circ(fh, ii, g):
                            return SweepResult(
                                False,
                                cases,
                                f"f={format_fn(f)} g={format_fn(g)} h={format_fn(h)} ii={ii} kk={kk}",
                            )
    return SweepResult(True, cases)


def sweep_identity(carrier: int, max_arity: int) -> SweepResult:
    """Identity laws for every function and every slot."""
    pool = _function_pool(carrier, max_arity)
    cases = 0
    for f in pool:
        for ii in range(1, f.arity + 1):
            cases += 1
            if not check_identity_axiom(f, ii):
                return SweepResult(False, cases, f"f={format_fn(f)} ii={ii}")
    return SweepResult(True, cases)


def format_fn(fn: FiniteFn) -> str:
    """Digit-string form ``carrier:table``, one digit per entry."""
    if fn.carrier > 10:
        raise BoundsError("digit form needs a carrier of at most 10")
    return f"{fn.carrier}:{''.join(str(v) for v in fn.table)}"


def parse_fn_spec(text: str, carrier: int | None = None) -> FiniteFn:
    """Parse ``carrier:table`` back into a FiniteFn.

    The arity is inferred from the table length, which must be an
    exact power of the carrier.
    """
    head, sep, digits = text.partition(":")
    if not sep or not text.isascii() or not head.isdigit() or not digits.isdigit():
        raise BoundsError(f"expected carrier:table digits, got {text!r}")
    s = int(head)
    if s < 1 or s > 10:
        raise BoundsError(f"carrier must be in 1..10, got {s}")
    if carrier is not None and s != carrier:
        raise CarrierMismatch(f"spec carrier {s} does not match expected {carrier}")
    size = len(digits)
    if s == 1 and size != 1:
        raise BoundsError(f"table length {size} is not a power of the carrier {s}")
    arity = 0
    while s**arity < size:
        arity += 1
    if s**arity != size:
        raise BoundsError(f"table length {size} is not a power of the carrier {s}")
    return FiniteFn(s, arity, tuple(int(d) for d in digits))


def interpret(expr, binding: dict[str, FiniteFn], declared: dict[str, int] | None = None) -> FiniteFn:
    """Evaluate a parsed composition expression over finite functions.

    binding maps atom names to functions; declared, when given, maps
    names to the arity the program claimed, and mismatches are
    rejected before any composition runs.
    """
    from .expr_parser import Atom, Compose

    if declared:
        for name, arity in declared.items():
            if name in binding and binding[name].arity != arity:
                raise BoundsError(
                    f"{name!r} was declared with arity {arity} but is bound to a function of arity {binding[name].arity}"
                )

    def walk(node) -> FiniteFn:
        if isinstance(node, Atom):
            if node.name not in binding:
                raise BoundsError(f"no function bound to atom {node.name!r}")
            return binding[node.name]
        if isinstance(node, Compose):
            return circ(walk(node.left), node.pos, walk(node.right))
        raise BoundsError(f"unknown expression node {node!r}")

    return walk(expr)
