"""Finite functions X^k -> X, their grafting, and the operad axioms on them."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import operadix.endomorphism as endomorphism
from operadix import (
    BoundsError,
    CarrierMismatch,
    FiniteFn,
    SweepResult,
    all_functions,
    check_identity_axiom,
    check_parallel_axiom,
    check_sequential_axiom,
    circ,
    constant_fn,
    format_fn,
    identity_fn,
    interpret,
    parse,
    parse_fn_spec,
    sweep_identity,
    sweep_parallel,
    sweep_sequential,
)

XOR = parse_fn_spec("2:0110")
NOT = parse_fn_spec("2:10")
AND = parse_fn_spec("2:0001")
OR = parse_fn_spec("2:0111")
BIG = FiniteFn(2, 11, (0,) * 2**11)


def reference_circ(f, ii, g):
    """The pointwise definition of f o_ii g, one __call__ pair per entry."""
    s, m = f.carrier, g.arity
    table = []
    for args in itertools.product(range(s), repeat=f.arity + m - 1):
        middle = g(*args[ii - 1 : ii - 1 + m])
        table.append(f(*args[: ii - 1], middle, *args[ii - 1 + m :]))
    return FiniteFn(s, f.arity + m - 1, tuple(table))


def assert_circ_matches_reference(f, ii, g):
    r = circ(f, ii, g)
    assert r == reference_circ(f, ii, g)
    assert FiniteFn(r.carrier, r.arity, r.table) == r


def test_call_uses_first_argument_as_most_significant():
    assert [XOR(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 1, 0]
    f = parse_fn_spec("3:012120201")  # ternary example, row index = 3*a + b
    assert f(1, 2) == 0 and f(2, 0) == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"carrier": 0, "arity": 1, "table": ()},
        {"carrier": 2, "arity": 2, "table": (0, 1, 1)},  # wrong length
        {"carrier": 2, "arity": 1, "table": (0, 2)},  # value out of carrier
        {"carrier": 2, "arity": -1, "table": ()},
        {"carrier": 2, "arity": 1, "table": (0.5, 1)},  # non-integer entry
        {"carrier": 2, "arity": 1.0, "table": (0, 1)},  # float arity
        {"carrier": 2.0, "arity": 1, "table": (0, 1)},  # float carrier
        {"carrier": 2, "arity": 1, "table": (True, False)},  # bools are not carrier values
        {"carrier": 2, "arity": 1, "table": "01"},  # characters, not integers
        {"carrier": 2, "arity": 1, "table": None},
    ],
)
def test_finite_fn_validation(kwargs):
    with pytest.raises(BoundsError):
        FiniteFn(**kwargs)


def test_finite_fn_stores_table_as_tuple():
    entries = [0, 1]
    f = FiniteFn(2, 1, entries)
    entries[0] = 1
    assert f.table == (0, 1) and f == identity_fn(2)
    assert hash(f) == hash(identity_fn(2))


def test_arity_zero_is_a_value():
    c = constant_fn(2, 1)
    assert c.arity == 0 and c() == 1


def test_identity_fn():
    ident = identity_fn(3)
    assert ident.arity == 1
    assert [ident(x) for x in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("arg", [True, 1.0])  # a bool is not a carrier value
def test_call_rejects_non_int_arguments(arg):
    with pytest.raises(BoundsError, match="is not an int"):
        identity_fn(2)(arg)


def test_circ_xor_with_not_in_first_slot():
    assert circ(XOR, 1, NOT) == parse_fn_spec("2:1001")  # XNOR


def test_circ_xor_with_xor_gives_parity():
    parity3 = circ(XOR, 2, XOR)
    assert parity3.arity == 3
    assert parity3 == parse_fn_spec("2:01101001")


def test_circ_arity_arithmetic():
    f = circ(parse_fn_spec("2:0110100110010110"), 2, parse_fn_spec("2:01101001"))
    assert f.arity == 4 + 3 - 1


def test_circ_with_constant_consumes_slot():
    assert circ(AND, 1, constant_fn(2, 0)) == parse_fn_spec("2:00")
    assert circ(OR, 2, constant_fn(2, 1)) == parse_fn_spec("2:11")


def test_circ_const_saturates_to_value():
    r = circ(NOT, 1, constant_fn(2, 0))
    assert r.arity == 0 and r() == 1


def test_circ_bounds_and_carrier():
    with pytest.raises(BoundsError):
        circ(XOR, 3, NOT)
    with pytest.raises(BoundsError):
        circ(XOR, 0, NOT)
    with pytest.raises(CarrierMismatch):
        circ(XOR, 1, identity_fn(3))


@pytest.mark.parametrize(
    "f, ii, g, error, message",
    [
        # the carrier check comes first, even for a constant f or a bad slot
        (constant_fn(2, 0), 5, identity_fn(3), CarrierMismatch, "carriers differ: 2 vs 3"),
        (constant_fn(2, 0), 1, NOT, BoundsError, "cannot compose into a constant, it has no slots"),
        (XOR, 3, NOT, BoundsError, "slot must be in 1..2, got 3"),
        (XOR, 0, identity_fn(2), BoundsError, "slot must be in 1..2, got 0"),
        (BIG, 12, BIG, BoundsError, "slot must be in 1..11, got 12"),
        (BIG, 11, BIG, BoundsError, "result table would need 2097152 entries, cap is 1048576"),
    ],
)
def test_circ_guard_messages(f, ii, g, error, message):
    with pytest.raises(error) as caught:
        circ(f, ii, g)
    assert type(caught.value) is error and str(caught.value) == message


def test_circ_matches_reference_on_carrier_two():
    """Every (f, ii, g) with arity(f) <= 2 and arity(g) in 0..3, constants included."""
    fs = [fn for n in (1, 2) for fn in all_functions(2, n)]
    gs = [fn for m in range(4) for fn in all_functions(2, m)]
    for f in fs:
        for ii in range(1, f.arity + 1):
            for g in gs:
                assert_circ_matches_reference(f, ii, g)


def test_circ_matches_reference_on_carrier_one():
    for n in range(1, 5):
        f = FiniteFn(1, n, (0,))
        for ii in range(1, n + 1):
            for m in range(5):
                assert_circ_matches_reference(f, ii, FiniteFn(1, m, (0,)))


@st.composite
def circ_cases(draw):
    s = draw(st.integers(3, 4))
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    entries = st.integers(0, s - 1)
    f = FiniteFn(s, n, tuple(draw(st.lists(entries, min_size=s**n, max_size=s**n))))
    g = FiniteFn(s, m, tuple(draw(st.lists(entries, min_size=s**m, max_size=s**m))))
    return f, draw(st.integers(1, n)), g


@settings(max_examples=60, deadline=None)
@given(circ_cases())
def test_circ_matches_reference_on_larger_carriers(case):
    assert_circ_matches_reference(*case)


def test_identity_laws_pointwise():
    ident = identity_fn(2)
    for f in (XOR, NOT, AND, OR):
        for i in range(1, f.arity + 1):
            assert circ(f, i, ident) == f
        assert circ(ident, 1, f) == f
        assert check_identity_axiom(f, i)


def test_sequential_axiom_concrete():
    f = parse_fn_spec("2:0110100110010110")  # arity 4
    g = parse_fn_spec("2:00010111")  # arity 3
    h = parse_fn_spec("2:01101001")  # arity 3
    ii, jj = 2, 3
    assert check_sequential_axiom(f, g, h, ii, jj)
    left = circ(circ(f, ii, g), ii - 1 + jj, h)
    right = circ(f, ii, circ(g, jj, h))
    assert left == right


def test_parallel_axiom_concrete():
    f = parse_fn_spec("2:0110100110010110")
    assert check_parallel_axiom(f, OR, NOT, 1, 3)
    left = circ(circ(f, 1, OR), 3 - 1 + OR.arity, NOT)
    right = circ(circ(f, 3, NOT), 1, OR)
    assert left == right


def test_parallel_axiom_requires_ordered_slots():
    with pytest.raises(BoundsError):
        check_parallel_axiom(XOR, NOT, NOT, 2, 2)


def test_all_functions_counts():
    assert len(list(all_functions(2, 1))) == 4
    assert len(list(all_functions(2, 2))) == 16
    assert len(list(all_functions(3, 0))) == 3


def test_all_functions_guard():
    with pytest.raises(BoundsError):
        list(all_functions(4, 2))  # 4^16 tables


def test_sweep_sizes_and_success():
    seq = sweep_sequential(2, 1)
    assert seq.ok and seq.cases == 64 and seq.counterexample is None
    par = sweep_parallel(2, 1)
    assert par.ok and par.cases == 0  # no two distinct slots at arity 1
    idf = sweep_identity(2, 1)
    assert idf.ok and idf.cases == 4


@pytest.fixture
def faulty_circ(monkeypatch):
    """circ with one planted fault: entry 0 flips for XOR o_2 identity."""
    real = endomorphism.circ

    def circ_with_fault(f, ii, g):
        r = real(f, ii, g)
        if ii == 2 and f.table == XOR.table and g.table == (0, 1):
            return FiniteFn(r.carrier, r.arity, (1 - r.table[0],) + r.table[1:])
        return r

    monkeypatch.setattr(endomorphism, "circ", circ_with_fault)


@pytest.mark.parametrize(
    "sweep, expected",
    [
        (sweep_sequential, SweepResult(False, 1782, "f=2:10 g=2:0110 h=2:01 ii=1 jj=2")),
        (sweep_parallel, SweepResult(False, 2402, "f=2:0110 g=2:00 h=2:01 ii=1 kk=2")),
        (sweep_identity, SweepResult(False, 18, "f=2:0110 ii=2")),
    ],
)
def test_sweep_reports_first_failure(faulty_circ, sweep, expected):
    assert sweep(2, 2) == expected


def test_sweep_guard():
    with pytest.raises(BoundsError):
        sweep_sequential(2, 3)


def test_format_round_trip():
    for text in ("2:0110", "2:10", "3:012120201", "2:0", "4:0123"):
        assert format_fn(parse_fn_spec(text)) == text


def test_carrier_one():
    f = parse_fn_spec("1:0")
    assert f.arity == 0 and f() == 0
    assert parse_fn_spec("1:0", carrier=1) == f


@pytest.mark.parametrize(
    "text",
    ["", "0110", "2:", "2:012", "2:011", "x:01", "11:0", "2:01 10", "2:1\u00b2", "\u00b2:01", "2:0\u0661"],
)
def test_parse_fn_spec_rejects(text):
    with pytest.raises(BoundsError):
        parse_fn_spec(text)


def test_parse_fn_spec_carrier_cross_check():
    with pytest.raises(CarrierMismatch):
        parse_fn_spec("2:0110", carrier=3)


def test_interpret_single_atom():
    decls, expr = parse("f:2; f")
    assert interpret(expr, {"f": XOR}) == XOR


def test_interpret_composite():
    decls, expr = parse("f:2; g:1; f o_1 g")
    assert interpret(expr, {"f": XOR, "g": NOT}) == parse_fn_spec("2:1001")


def test_interpret_association_orders_agree():
    binding = {
        "f": parse_fn_spec("2:0110100110010110"),
        "g": parse_fn_spec("2:00010111"),
        "h": parse_fn_spec("2:01101001"),
    }
    _, left = parse("f:4; g:3; h:3; (f o_2 g) o_4 h")
    _, right = parse("f:4; g:3; h:3; f o_2 (g o_3 h)")
    assert interpret(left, binding) == interpret(right, binding)


def test_interpret_missing_binding():
    _, expr = parse("f:2; f")
    with pytest.raises(BoundsError):
        interpret(expr, {})


def test_interpret_checks_declared_arity():
    decls, expr = parse("f:3; f")
    with pytest.raises(BoundsError):
        interpret(expr, {"f": XOR}, {d.name: d.arity for d in decls})


tables2 = st.integers(0, 1)


@given(
    f_bits=st.lists(tables2, min_size=4, max_size=4),
    g_bits=st.lists(tables2, min_size=2, max_size=2),
    h_bits=st.lists(tables2, min_size=4, max_size=4),
    ii=st.integers(1, 2),
    jj=st.integers(1, 1),
)
def test_sequential_axiom_random_tables(f_bits, g_bits, h_bits, ii, jj):
    f = FiniteFn(2, 2, tuple(f_bits))
    g = FiniteFn(2, 1, tuple(g_bits))
    h = FiniteFn(2, 2, tuple(h_bits))
    assert check_sequential_axiom(f, g, h, ii, jj)
