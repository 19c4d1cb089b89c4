"""Tests for the exact polynomial engine and the signed-permutation action."""

import itertools
import re
import time
from decimal import Decimal
from fractions import Fraction
from operator import add, ge

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bnspecht.errors import AmbientMismatchError, ParseError, ResourceLimitExceeded
from bnspecht.polynomials import (
    Monomial,
    ORDER_TAGS,
    SignedPermutation,
    SparsePolynomial,
    act,
    _column_expansion,
    _exact_quotient,
    _field_width,
    _monomial_codec,
    act_point,
    parse_point,
    parse_polynomial,
    vandermonde,
    vandermonde_squares,
)
from bnspecht.varieties import as_point, bn_orbit_type
from tuple_kernel import leading, monic, reference_order_key

N = 3

exponent_tuples = st.tuples(*[st.integers(0, 3)] * N)
polys = st.dictionaries(exponent_tuples, st.integers(-4, 4), max_size=5).map(
    lambda d: SparsePolynomial(N, {e: Fraction(c) for e, c in d.items()})
)
signed_perms = st.tuples(
    st.permutations(list(range(1, N + 1))), st.tuples(*[st.sampled_from((1, -1))] * N)
).map(lambda t: SignedPermutation(tuple(t[0]), t[1]))
points = st.tuples(*[st.integers(-3, 3)] * N).map(lambda t: tuple(Fraction(c) for c in t))


def test_monomial_basics():
    m = Monomial((2, 0, 1))
    assert m.degree == 3
    assert m.exponents == {1: 2, 3: 1}
    assert str(m) == "x1^2*x3"
    assert str(Monomial((0, 0, 0))) == "1"
    assert Monomial((1, 0, 0)).divides(Monomial((2, 1, 0)))
    assert not Monomial((0, 2, 0)).divides(Monomial((2, 1, 0)))


def test_divides_rejects_a_different_ambient():
    with pytest.raises(AmbientMismatchError):
        Monomial((1, 0)).divides(Monomial((1,)))


def packed_order_key(tag, n=N, width=8):
    """The codec's order as a sort key, larger key = larger monomial: the negated packed monomial."""
    pack = _monomial_codec(n, tag, width).pack
    return lambda e: -pack(e)


def test_order_keys_disagree_where_expected():
    for order_key in (packed_order_key, reference_order_key):
        lex = order_key("lex")
        deglex = order_key("deglex")
        degrevlex = order_key("degrevlex")
        # x1 > x2^2 under lex but not under the degree orders
        assert lex((1, 0, 0)) > lex((0, 2, 0))
        assert deglex((1, 0, 0)) < deglex((0, 2, 0))
        # x1*x3 vs x2^2: deglex prefers x1*x3, degrevlex also (smaller on last var)
        assert deglex((1, 0, 1)) > deglex((0, 2, 0))
        assert degrevlex((0, 1, 1)) < degrevlex((1, 0, 1))
        # reversed-variable lex swaps the roles of x1 and x3
        rev = order_key("lex-rev")
        assert rev((0, 0, 1)) > rev((1, 0, 0))
        with pytest.raises(ValueError):
            order_key("mystery")


def test_order_tags_cover_both_directions():
    assert set(ORDER_TAGS) == {
        "lex",
        "deglex",
        "degrevlex",
        "lex-rev",
        "deglex-rev",
        "degrevlex-rev",
    }


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + SparsePolynomial.zero(N) == p
    assert p * SparsePolynomial.constant(N, 1) == p
    assert (p - p).is_zero
    for result in (p + q, p - q, p * q, (p + r) * (q - r)):
        assert 0 not in result.terms.values()


@given(polys)
def test_string_form_round_trips_through_parser(p):
    assert parse_polynomial(str(p), N) == p


rational_polys = st.dictionaries(
    exponent_tuples,
    st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool),
    max_size=5,
).map(lambda d: SparsePolynomial(N, d))


@given(rational_polys)
def test_rational_string_form_round_trips_through_parser(p):
    assert parse_polynomial(str(p), N) == p


def test_rational_literals():
    assert str(SparsePolynomial(2, {(1, 0): Fraction(1, 2)})) == "1/2*x1"
    assert parse_polynomial("1/2*x1", 2) == SparsePolynomial(2, {(1, 0): Fraction(1, 2)})
    assert parse_polynomial("-3/4 + 2/4*x2^2", 2) == SparsePolynomial(
        2, {(0, 0): Fraction(-3, 4), (0, 2): Fraction(1, 2)}
    )
    assert parse_polynomial("6 / 3", 1).terms == {(0,): 2}
    assert parse_polynomial("0/5", 1).is_zero


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "zero denominator (at position 2)"),
        ("x1 + 2/ 00", "zero denominator (at position 8)"),
        ("1/", "expected a denominator after '/' (at position 2)"),
        ("1/x1", "expected a denominator after '/' (at position 2)"),
        ("1/2/3", "unexpected character '/' (at position 3)"),
        ("x1/2", "unexpected character '/' (at position 2)"),
    ],
)
def test_rational_literal_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, 2)
    assert str(err.value) == message


def test_points_read_the_coefficient_literals():
    point = parse_point(" 2, -1/2 ,+ 3/ 6,0")
    assert point == (2, Fraction(-1, 2), Fraction(1, 2), 0)
    assert [type(c) for c in point] == [int, Fraction, Fraction, int]
    with pytest.raises(ParseError) as err:
        parse_point("1, 2/0")
    assert err.value.position == 5


@pytest.mark.parametrize(
    "text, message",
    [
        ("x\u0661", "expected a variable index after 'x' (at position 1)"),
        ("x\u00b2", "expected a variable index after 'x' (at position 1)"),
        ("x1^\u00b2", "expected an integer exponent after '^' (at position 3)"),
        ("\u0661 + x1", "expected a number, variable or '(' (at position 0)"),
        ("1/\u0662", "expected a denominator after '/' (at position 2)"),
    ],
)
def test_parser_takes_ascii_digits_only(text, message):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, 2)
    assert str(err.value) == message


def test_string_form_examples():
    p = SparsePolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
    assert str(p) == "x1^2 - x2^2"
    assert str(SparsePolynomial.zero(2)) == "0"
    assert str(SparsePolynomial(2, {(1, 1): Fraction(-3)})) == "-3*x1*x2"
    with pytest.raises(ValueError, match=r"negative exponent in x1\^-1"):
        SparsePolynomial(2, {(-1, 0): 1, (0, 1): 1})


def test_parser_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_polynomial("x1 +", 2)
    with pytest.raises(ParseError):
        parse_polynomial("x9", 2)
    with pytest.raises(ParseError):
        parse_polynomial("(x1", 2)
    with pytest.raises(ParseError):
        parse_polynomial("x1 $ x2", 2)


def test_parser_grammar():
    assert parse_polynomial("x2*x3*(x1^2-1)", 4) == parse_polynomial(
        "x1^2*x2*x3 - x2*x3", 4
    )
    assert parse_polynomial("-x1 + 2", 2) == SparsePolynomial(
        2, {(1, 0): Fraction(-1), (0, 0): Fraction(2)}
    )
    assert parse_polynomial("(x1+x2)^2", 2) == parse_polynomial("x1^2+2*x1*x2+x2^2", 2)


def test_power_by_squaring_handles_huge_exponents():
    start = time.perf_counter()
    p = parse_polynomial("x1^1000000000", 1)
    assert time.perf_counter() - start < 1
    assert p == SparsePolynomial(1, {(10**9,): Fraction(1)})
    q = parse_polynomial("x1 - 2*x2", 2)
    expected = SparsePolynomial.constant(2, 1)
    for k in range(8):
        assert q**k == expected
        expected = expected * q


def test_power_matches_repeated_multiplication():
    q = parse_polynomial("x1 + x2", 2)
    expected = SparsePolynomial.constant(2, 1)
    for _ in range(10):
        expected = expected * q
    assert q**10 == expected == parse_polynomial("(x1+x2)^10", 2)


def test_power_checks_each_products_term_pairs_before_forming_it():
    # squaring (x1+x2+x3+x4)^60 first multiplies the 12th power's 455 terms by the 16th's 969
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded, match="^term count 440895 exceeds cap 200000$"):
        parse_polynomial("(x1+x2+x3+x4)^60", 4)
    assert time.perf_counter() - start < 1


def test_negative_power_is_rejected():
    with pytest.raises(ValueError):
        parse_polynomial("x1 + 1", 1) ** -1


def test_variable_rejects_a_negative_power():
    with pytest.raises(ValueError, match="negative exponent -1"):
        SparsePolynomial.variable(2, 1, -1)
    assert SparsePolynomial.variable(2, 1, 0) == SparsePolynomial.constant(2, 1)
    assert str(SparsePolynomial.variable(2, 2, 3)) == "x2^3"


def test_variable_rejects_a_non_integer_power():
    for power in (1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match=f"non-integer exponent {power}"):
            SparsePolynomial.variable(2, 1, power)


@pytest.mark.parametrize(
    "terms, message",
    [
        ({(1.5, 0): 1}, "^non-integer exponent 1.5$"),
        ({(-1, 0): 1}, r"^negative exponent in x1\^-1$"),
        ({(2.0, 0): 1}, "^non-integer exponent 2.0$"),
        ({(0, "2"): 1}, "^non-integer exponent 2$"),
        ({(None, 0): 1}, "^non-integer exponent None$"),
        ({(1, 0, 0): 0}, r"^exponent tuple \(1, 0, 0\) does not match n=2$"),
        ({(0, 1): 1, (1, -2): 0}, r"^negative exponent in x1\*x2\^-2$"),
    ],
)
def test_construction_checks_every_key(terms, message):
    """Every key is checked, whatever its coefficient: a zero one is no exemption."""
    with pytest.raises(ValueError, match=message):
        SparsePolynomial(2, terms)


@pytest.mark.parametrize(
    "exps, message",
    [((1.5,), "^non-integer exponent 1.5$"), ((-1,), r"^negative exponent in x1\^-1$")],
)
def test_a_monomial_checks_its_exponents(exps, message):
    with pytest.raises(ValueError, match=message):
        Monomial(exps)


def test_leading_data_and_monic():
    p = parse_polynomial("2*x2^3 + x1", 3)
    assert p.leading_exponents("lex") == (1, 0, 0)
    assert p.leading_exponents("deglex") == (0, 3, 0)
    assert p.leading_exponents("lex") == (1, 0, 0)  # a second call gives the same lead
    with pytest.raises(ValueError):
        SparsePolynomial.zero(2).leading_exponents("lex")
    assert p.monic("deglex").leading_coefficient("deglex") == 1
    assert p.sign_normalized() == p
    assert (-p).sign_normalized() == p


def test_coefficients_are_ints_where_integral():
    cases = [
        (6, 3, 2),
        (-4, 2, -2),
        (3, -6, Fraction(-1, 2)),
        (1, 2, Fraction(1, 2)),
        (Fraction(3, 2), Fraction(3, 4), 2),
        (Fraction(1, 3), 2, Fraction(1, 6)),
    ]
    for a, b, expected in cases:
        got = _exact_quotient(a, b)
        assert got == expected and type(got) is type(expected), (a, b, got)
    with pytest.raises(ZeroDivisionError):
        _exact_quotient(1, 0)
    p = SparsePolynomial(1, {(1,): Fraction(4, 2), (0,): 0.5}).scale(Fraction(2, 3))
    assert p.terms == {(1,): Fraction(4, 3), (0,): Fraction(1, 3)}
    assert [type(c) for c in p.scale(3).terms.values()] == [int, int]
    assert type(SparsePolynomial.constant(2, Fraction(6, 3)).coefficient((0, 0))) is int
    assert type(p.coefficient((5,))) is int


def test_substitute_squares_and_evaluate():
    p = parse_polynomial("x1 - x2", 2)
    assert p.substitute_squares() == parse_polynomial("x1^2 - x2^2", 2)
    assert p.evaluate((Fraction(3), Fraction(1))) == 2
    with pytest.raises(AmbientMismatchError):
        p.evaluate((1,))


def test_extend_embeds_the_ring():
    p = parse_polynomial("x1*x2", 2)
    q = p.extend(4)
    assert q.n == 4
    assert q == parse_polynomial("x1*x2", 4)
    with pytest.raises(AmbientMismatchError):
        q.extend(2)


def test_vandermonde_examples():
    assert vandermonde(2, (1, 2)) == parse_polynomial("x1 - x2", 2)
    assert vandermonde(3, (1,)) == SparsePolynomial.constant(3, 1)
    assert vandermonde_squares(2, (1, 2)) == parse_polynomial("x1^2 - x2^2", 2)
    # three indices: the full 3x3 determinant expansion
    v = vandermonde(3, (1, 2, 3))
    assert v == parse_polynomial("(x1-x2)*(x1-x3)*(x2-x3)", 3)
    with pytest.raises(ValueError):
        vandermonde(3, (1, 1))


def test_vandermonde_alternates_under_transposition():
    v = vandermonde_squares(3, (1, 2, 3))
    swap = SignedPermutation.from_permutation((2, 1, 3))
    assert act(swap, v) == -v


@pytest.mark.parametrize("bad", [1.5, 1.0])
def test_a_non_integer_variable_index_is_rejected(bad):
    message = f"non-integer variable index {bad}"
    with pytest.raises(ValueError, match=message):
        SparsePolynomial.variable(2, bad)
    with pytest.raises(ValueError, match=message):
        SignedPermutation.sign_flip(3, bad)
    with pytest.raises(ValueError, match=message):
        vandermonde(3, [bad, 2])
    with pytest.raises(ValueError, match=message):
        vandermonde_squares(3, [2, bad])


class Index:
    """An integer only through __index__: not an int, and not equal to one."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_an_index_object_reads_as_its_integer():
    one, two = Index(1), Index(2)
    assert SparsePolynomial.variable(3, two, two) == parse_polynomial("x2^2", 3)
    assert SignedPermutation.sign_flip(3, two) == SignedPermutation((1, 2, 3), (1, -1, 1))
    assert vandermonde(3, [one, 2]) == parse_polynomial("x1 - x2", 3)
    assert _column_expansion(3, [(one, 2)], 1, [one]) == parse_polynomial("x1^2 - x1*x2", 3)
    assert parse_polynomial("x1 + 1", 1) ** two == parse_polynomial("x1^2 + 2*x1 + 1", 1)
    built = SparsePolynomial(3, {(two, 0, one): 1})
    assert built == parse_polynomial("x1^2*x3", 3)
    assert [type(e) for exps in built.terms for e in exps] == [int] * 3
    assert Monomial((two, one)).exps == (2, 1)
    # two keys that read as one exponent tuple add up
    assert SparsePolynomial(1, {(one,): 1, (1,): 2}) == parse_polynomial("3*x1", 1)


def test_power_rejects_a_non_integer_exponent():
    p = parse_polynomial("x1 + 1", 1)
    for k in (1.5, 2.0):
        with pytest.raises(ValueError, match=f"non-integer exponent {k}"):
            p ** k
    with pytest.raises(ValueError, match="negative exponent -1"):
        p ** -1


def test_sign_flip_action():
    p = parse_polynomial("x1*x2 + x1^2", 2)
    flip = SignedPermutation.sign_flip(2, 1)
    assert act(flip, p) == parse_polynomial("-x1*x2 + x1^2", 2)


@pytest.mark.parametrize("i", [0, 3, -1])
def test_sign_flip_rejects_an_index_outside_the_rank(i):
    with pytest.raises(AmbientMismatchError, match=f"variable x{i} outside ambient 1..2"):
        SignedPermutation.sign_flip(2, i)


@pytest.mark.parametrize("z", [(1, 2, 3), (1,), ()])
def test_point_action_rejects_a_point_of_another_rank(z):
    with pytest.raises(AmbientMismatchError, match=f"point has {len(z)} coordinates"):
        act_point(SignedPermutation.sign_flip(2, 1), z)


@given(signed_perms, signed_perms, polys)
def test_action_respects_composition(g, h, p):
    assert act(g.compose(h), p) == act(g, act(h, p))
    assert 0 not in act(g, p).terms.values()


@given(signed_perms, polys)
def test_inverse_action(g, p):
    assert act(g.inverse(), act(g, p)) == p
    assert 0 not in act(g.inverse(), p).terms.values()
    assert g.compose(g.inverse()) == SignedPermutation.identity(N)


@given(signed_perms, polys, points)
def test_point_action_is_compatible(g, p, z):
    assert act(g, p).evaluate(z) == p.evaluate(act_point(g.inverse(), z))


@given(signed_perms, signed_perms, points)
def test_point_action_composes(g, h, z):
    assert act_point(g.compose(h), z) == act_point(g, act_point(h, z))


def _cmp(a, b):
    return (a > b) - (a < b)


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=2, max_size=12, unique=True))
def test_descending_key_reverses_order_key(exps):
    """Packed monomials sort ascending as the reference order sorts descending."""
    for tag in ORDER_TAGS:
        expected = sorted(exps, key=reference_order_key(tag), reverse=True)
        assert sorted(exps, key=_monomial_codec(3, tag, 8).pack) == expected, tag
        assert sorted(exps, key=packed_order_key(tag), reverse=True) == expected, tag
        lead = SparsePolynomial(3, {e: Fraction(1) for e in exps}).leading_exponents(tag)
        assert lead == expected[0], tag


def test_order_keys_match_reference_on_every_pair():
    # all exponent tuples of 3 variables with entries 0..2, every ordered pair
    exps = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    for tag in ORDER_TAGS:
        reference, key = reference_order_key(tag), packed_order_key(tag)
        descending = _monomial_codec(3, tag, 8).pack
        for u in exps:
            for v in exps:
                want = _cmp(reference(u), reference(v))
                assert _cmp(key(u), key(v)) == want, (tag, u, v)
                assert _cmp(descending(v), descending(u)) == want, (tag, u, v)


@given(polys.filter(bool))
@example(SparsePolynomial.constant(0, 5))  # n = 0
@example(SparsePolynomial(2, {(300, 0): 1, (0, 299): 2, (1, 1): -3}))  # fields past 8 bits
# exponents near 10**9 take 64-bit fields
@example(SparsePolynomial(3, {(10**9, 0, 0): 1, (0, 10**9, 1): -1, (0, 0, 10**9 + 1): 2}))
def test_leads_match_the_reference_under_every_order(p):
    """The codec's lead under each tag, at every field width, is the reference's."""
    for tag in ORDER_TAGS:
        lead = leading(p, tag)
        assert p.leading_exponents(tag) == lead, tag
        assert p.leading_coefficient(tag) == p.terms[lead], tag
        assert p.monic(tag) == monic(p, tag), tag
        assert p.monic(tag).leading_coefficient(tag) == 1, tag
    with pytest.raises(ValueError):
        p.leading_exponents("mystery")
    q = p.sign_normalized()
    assert q in (p, -p) and q.leading_coefficient("lex") > 0
    assert q.sign_normalized() == q and (-q).sign_normalized() == q


# ---------------------------------------------------------------------------
# packed monomials


@st.composite
def packable(draw):
    """(n, width, exponent tuples) with n <= 7 and every exponent below the guard bit."""
    n = draw(st.integers(0, 7))
    width = draw(st.integers(2, 12))
    exps = st.tuples(*[st.integers(0, 2 ** (width - 1) - 1)] * n)
    return n, width, draw(st.lists(exps, min_size=1, max_size=12))


@given(packable())
def test_packed_keys_sort_like_order_key(case):
    n, width, exps = case
    for tag in ORDER_TAGS:
        codec = _monomial_codec(n, tag, width)
        by_key = sorted(set(exps), key=reference_order_key(tag), reverse=True)
        assert sorted({codec.pack(e) for e in exps}) == [codec.pack(e) for e in by_key], tag


@given(packable())
def test_packing_round_trips_adds_and_takes_lcms(case):
    n, width, exps = case
    for tag in ORDER_TAGS:
        codec = _monomial_codec(n, tag, width)
        for a, b in zip(exps, exps[1:] + exps[:1]):
            assert codec.unpack(codec.pack(a)) == a, tag
            assert codec.degree(codec.pack(a)) == sum(a), tag
            product = tuple(map(add, a, b))  # below 2**width: no field carries
            assert codec.pack(a) + codec.pack(b) == codec.pack(product), tag
            assert codec.unpack(codec.pack(product)) == product, tag
            assert codec.degree(codec.pack(product)) == sum(product), tag
            fa, fb = (codec.sign * codec.pack(e) & codec.low for e in (a, b))
            assert codec.unpack(codec.sign * codec.lcm(fa, fb)) == tuple(map(max, a, b)), tag
            assert bool(codec.sign * codec.pack(product) & codec.guard) == any(
                x >> (width - 1) for x in product
            ), tag


@given(packable())
def test_guard_test_is_divisibility(case):
    n, width, exps = case
    for tag in ORDER_TAGS:
        codec = _monomial_codec(n, tag, width)
        for lead in exps:
            for m in exps:
                divides = not codec.sign * (codec.pack(m) - codec.pack(lead)) & codec.guard
                assert divides == all(map(ge, m, lead)), (tag, lead, m)


def test_field_width_holds_eight_times_the_largest_exponent():
    for largest in (0, 1, 15, 16, 4095, 4096, 70000, 2**40):
        width = _field_width(largest)
        assert 8 * largest < 2 ** (width - 1)
        assert width == 8 or 8 * largest >= 2 ** (width // 2 - 1)


# ---------------------------------------------------------------------------
# the column expansion


def test_single_entry_columns_check_their_index():
    with pytest.raises(AmbientMismatchError):
        vandermonde(3, [7])
    with pytest.raises(AmbientMismatchError):
        vandermonde_squares(2, [9])
    assert vandermonde(3, [2]) == SparsePolynomial.constant(3, 1)


def product_expansion(n, columns, step, odd):
    """The binomials x_a^step - x_b^step of every column and the odd variables, multiplied out."""
    result = SparsePolynomial.constant(n, 1)
    for col in columns:
        for a, b in itertools.combinations(col, 2):
            result = result * (
                SparsePolynomial.variable(n, a, step) - SparsePolynomial.variable(n, b, step)
            )
    for k in odd:
        result = result * SparsePolynomial.variable(n, k)
    return result


@st.composite
def expansions(draw, max_n=6):
    """(n, columns, step, odd): disjoint columns, empty and single-entry ones included,
    over a shuffled subset of x1..xn, and odd indices with repeats anywhere in 1..n."""
    n = draw(st.integers(0, max_n))
    entries = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]
    columns = []
    while entries:
        h = draw(st.integers(1, min(len(entries), 4)))
        columns.append(tuple(entries[:h]))
        entries = entries[h:]
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), ())
    odd = draw(st.lists(st.integers(1, n), max_size=4)) if n else []
    return n, columns, draw(st.sampled_from((1, 2))), odd


@given(expansions())
@example((0, [], 1, []))
@example((0, [()], 2, []))
@example((1, [(1,)], 2, [1]))
@example((1, [], 1, [1, 1]))
@example((5, [(1, 3, 4), (2,)], 2, [1, 3, 4]))  # the odd set covers a whole column
@example((5, [(1, 3, 4), (2,)], 2, [3]))  # part of a column
@example((6, [(2, 5), (), (1, 3)], 1, [4, 6, 6, 5, 2]))  # outside every column, x6 twice
@example((4, [(1, 2, 4), (3,)], 2, [1, 1, 2, 2]))  # a covering certificate's offset-2 column
def test_column_expansion_is_the_product_of_its_binomials(case):
    n, columns, step, odd = case
    expanded = _column_expansion(n, columns, step, odd)
    assert expanded == product_expansion(n, columns, step, odd)
    assert all(type(c) is int for c in expanded.terms.values())


def assert_clean(p):
    """p's terms are what the validating constructor keeps of them, in the same key order."""
    again = SparsePolynomial(p.n, p.terms)
    assert list(again.terms.items()) == list(p.terms.items())
    for c in p.terms.values():
        assert type(c) is int or type(c) is Fraction and c.denominator > 1, c


@given(expansions(max_n=7))
def test_column_expansions_are_clean_by_construction(case):
    assert_clean(_column_expansion(*case))


@st.composite
def signed_actions(draw):
    """(g, p): a signed permutation of rank n <= 7 and a polynomial with int and a/b terms."""
    n = draw(st.integers(0, 7))
    coefficients = st.one_of(
        st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coefficients, max_size=8))
    perm = tuple(draw(st.permutations(range(1, n + 1))))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * n))
    return SignedPermutation(perm, signs), SparsePolynomial(n, terms)


@given(signed_actions())
def test_actions_are_clean_by_construction(case):
    g, p = case
    moved = act(g, p)
    assert_clean(moved)
    assert act(g.inverse(), moved) == p


@pytest.mark.parametrize("value", [0.1, 0.3 - 0.2, 1 / 3, 1e23, 2.0**60])
def test_a_float_other_than_its_printed_decimal_is_rejected(value):
    """A float is taken only when it is exactly the decimal it prints as, as 0.5 is."""
    x1 = parse_polynomial("x1", 1)
    calls = [
        lambda: SparsePolynomial(1, {(1,): value}),
        lambda: x1.scale(value),
        lambda: x1 * value,
        lambda: x1 + value,
        lambda: x1.evaluate((value,)),
        lambda: as_point((1, value)),
        lambda: bn_orbit_type((value, value)),
        lambda: act_point(SignedPermutation.identity(1), (value,)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"float {value!r} ")):
            call()
    taken = as_point((Decimal("0.1"), "1/3", 0.5, 2.0))
    assert taken == (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), 2)
    p = SparsePolynomial(1, {(1,): Decimal("2.50"), (0,): "6/3"})
    assert p.terms == {(1,): Fraction(5, 2), (0,): 2}
    assert bn_orbit_type((Fraction(1, 10), Decimal("0.1"))) == bn_orbit_type((1, 1))
