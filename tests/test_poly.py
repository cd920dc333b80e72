import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncvanish.poly import (
    NcParseError,
    NcPoly,
    commutator,
    deglex_key,
    format_poly,
    parse,
    words_of_length,
)

from conftest import random_poly


def test_parse_basic_forms():
    assert parse("0", 2).is_zero()
    assert parse("x1", 2) == NcPoly.var(1, 2)
    assert parse("x1*x2 + 1", 2) == NcPoly.var(1, 2) * NcPoly.var(2, 2) + NcPoly.one(2)
    assert parse("3/2*x1", 2) == Fraction(3, 2) * NcPoly.var(1, 2)
    assert parse("(x1+1)^2", 2) == (NcPoly.var(1, 2) + NcPoly.one(2)) ** 2
    assert parse("x1^0", 2) == NcPoly.one(2)
    assert parse("2 - x1", 2) == NcPoly.constant(2, 2) - NcPoly.var(1, 2)


def test_parse_whitespace_insensitive():
    assert parse("x1*x2+1", 2) == parse("  x1 * x2  +  1 ", 2)


@pytest.mark.parametrize(
    "text",
    ["x0", "x3", "-x1", "x1 +", "*x1", "x1^", "(x1", "x1)", "y1", "1//2", ""],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(NcParseError):
        parse(text, 2)


def test_parse_error_reports_position():
    with pytest.raises(NcParseError) as ei:
        parse("x1 + x3", 2)
    assert "position" in str(ei.value)


def test_format_round_trip_random():
    rng = random.Random(41)
    for _ in range(300):
        d = rng.randint(1, 3)
        p = random_poly(rng, d, max_len=4, terms=5)
        assert parse(format_poly(p), d) == p


polynomials = st.integers(1, 3).flatmap(lambda d: st.builds(
    NcPoly, st.just(d),
    st.dictionaries(st.lists(st.integers(1, d), max_size=6).map(tuple),
                    st.fractions(-100, 100, max_denominator=60), max_size=6)))


@given(polynomials)
def test_format_round_trip_of_rational_coefficients(p):
    # runs of one letter print as powers, coefficients as p/q with any sign
    assert parse(format_poly(p), p.d) == p


def test_format_negative_unit_coefficient():
    assert format_poly(-NcPoly.var(1, 2)) == "-1*x1"
    assert format_poly(NcPoly.zero(2)) == "0"


def test_degree_and_lead():
    assert NcPoly.zero(2).degree == float("-inf")
    assert NcPoly.one(2).degree == 0
    p = parse("x1*x2 + x2*x1 + x1", 2)
    assert p.degree == 2
    # deglex: longer words dominate, ties broken left to right by letter
    assert p.lead_word == (2, 1)
    assert p.lead_coeff == 1
    # lead_part keeps every term of top degree
    assert p.lead_part() == parse("x1*x2 + x2*x1", 2)


def test_deglex_key_orders_by_length_then_letters():
    words = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert sorted(words, key=deglex_key) == words


def test_monic_scales_lead_to_one():
    p = parse("3*x1*x2 + 6", 2)
    m = p.monic()
    assert m.lead_coeff == 1
    assert Fraction(3) * m == p


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randint(1, 3)
        a = random_poly(rng, d, 3)
        b = random_poly(rng, d, 3)
        c = random_poly(rng, d, 3)
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == NcPoly.zero(d)
        assert a * NcPoly.one(d) == a
        assert NcPoly.one(d) * a == a


def test_noncommutativity():
    x1, x2 = NcPoly.var(1, 2), NcPoly.var(2, 2)
    assert x1 * x2 != x2 * x1
    assert commutator(x1, x2) == x1 * x2 - x2 * x1


def test_arithmetic_results_are_clean_polynomials():
    # sums and products skip re-validation, so they must drop exact zeros
    # themselves; the public constructor still checks every letter
    rng = random.Random(12)
    a = random_poly(rng, 2, 3)
    assert (a - a).terms == {} and (a * 0).terms == {} and (0 * a).is_zero()
    assert (a * Fraction(1, 2)) * 2 == a == -(-a)
    assert all(c != 0 for c in (a * a + a).terms.values())
    with pytest.raises(ValueError):
        NcPoly(2, {(3,): Fraction(1)})


def test_pow():
    rng = random.Random(11)
    a = random_poly(rng, 2, 2)
    assert a ** 0 == NcPoly.one(2)
    assert a ** 1 == a
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** -1


def test_parse_large_power_is_fast():
    started = time.perf_counter()
    assert parse("x1^4000", 1) == NcPoly.from_word((1,) * 4000, 1)
    assert time.perf_counter() - started < 0.2


@pytest.mark.parametrize(
    "text, limit",
    [
        ("x1^20000", "MAX_PARSE_DEGREE"),
        ("x1^6000*x1^6000", "MAX_PARSE_DEGREE"),
        ("(x1+x2)^20", "MAX_PARSE_TERMS"),
        ("[(x1+x2)^7, (x1+x2)^7]", "MAX_PARSE_TERMS"),
        (" + ".join(["(x1+x2)^12"] * 3), "MAX_PARSE_TERMS"),
        ("(2^4000)^4000", "MAX_PARSE_BITS"),
        # numerals too long to convert are refused by the limit they break
        pytest.param("x" + "1" * 5000, "variable index", id="long-variable-index"),
        pytest.param("x1^" + "1" * 5000, "MAX_PARSE_DEGREE", id="long-exponent"),
        pytest.param("1" * 40000 + "*x1", "MAX_PARSE_BITS", id="long-coefficient"),
        pytest.param("-" + "1" * 40000, "MAX_PARSE_BITS", id="long-negative"),
        pytest.param("2/" + "1" * 40000, "MAX_PARSE_BITS", id="long-denominator"),
    ],
)
def test_parse_refuses_oversized_products(text, limit):
    started = time.perf_counter()
    with pytest.raises(NcParseError, match=limit):
        parse(text, 2)
    assert time.perf_counter() - started < 0.5


def test_parse_reads_numerals_past_the_int_str_digit_limit():
    p = parse("1" * 5000 + "*x1 - 1/" + "7" * 5000, 2)
    assert p.coeff((1,)) == (10**5000 - 1) // 9
    assert p.constant_term == Fraction(-9, 7 * (10**5000 - 1))
    q = parse("7^6000*x1", 1)
    assert parse(format_poly(q), 1) == q and len(format_poly(q)) == 5074


def test_cyclic_reduce_identifies_rotations():
    p = parse("x1*x2 - x2*x1", 2)
    assert p.cyclic_reduce().is_zero()
    q = parse("x1*x2*x1", 2)
    r = parse("x1*x1*x2", 2)
    assert q.cyclic_reduce() == r.cyclic_reduce()
    # constants are fixed points
    assert NcPoly.constant(5, 2).cyclic_reduce() == NcPoly.constant(5, 2)


def test_word_enumeration_counts():
    assert len(list(words_of_length(2, 3))) == 8
    assert len(list(words_of_length(3, 0))) == 1


def test_hash_and_eq_consistent():
    a = parse("x1*x2 + 1/2", 2)
    b = parse("1/2 + x1*x2", 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse("x1*x2", 2)


def test_support_and_items():
    p = parse("2*x1 + x2*x2", 2)
    assert set(p.support()) == {(1,), (2, 2)}
    assert dict(p.items()) == {(1,): Fraction(2), (2, 2): Fraction(1)}
