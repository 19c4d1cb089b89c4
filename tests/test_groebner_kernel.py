"""The packed Groebner kernel against the tuple-keyed kernel it replaced.

`tuple_kernel` holds the former kernel, test-only. Reduced bases are
unique, so `buchberger` must return exactly the reference's basis; `reduce`
must return exactly its remainder; the universal-basis verdicts must equal
the reference's criterion with every S-pair reduced. Every order tag is
covered, with int and a/b coefficients, and so is the rerun at double field
width that a monomial outgrowing its fields sets off.
"""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bnspecht import groebner
from bnspecht.errors import DEFAULT_LIMITS, ResourceLimitExceeded, ResourceLimits
from bnspecht.groebner import buchberger, reduce, universal_gb_check
from bnspecht.partitions import bidominates, enumerate_bipartitions
from bnspecht.polynomials import ORDER_TAGS, SparsePolynomial, parse_polynomial
from bnspecht.tableaux import specht_generators
from tuple_kernel import (
    ReferenceTooLarge,
    reference_buchberger,
    reference_passes,
    reference_reduce,
)

COEFFICIENTS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 4)),
)


def polynomials(n, max_exponent=2, max_terms=3):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * n)
    terms = st.dictionaries(exponents, COEFFICIENTS, min_size=1, max_size=max_terms)
    return terms.map(lambda t: SparsePolynomial(n, t))


@st.composite
def ideals(draw, max_gens=3):
    """n <= 4 variables and 1-3 generators of 1-3 terms, exponents <= 2."""
    n = draw(st.integers(1, 4))
    return n, draw(st.lists(polynomials(n), min_size=1, max_size=max_gens))


# A few such ideals have lex bases too large for the criterion-free reference; they are skipped.
CAPS = ResourceLimits(max_basis=30, max_terms=300)


def capped_buchberger(gens, tag):
    try:
        return buchberger(gens, tag, CAPS)
    except ResourceLimitExceeded:
        reject()


def capped_reference(gens, tag):
    try:
        return reference_buchberger(gens, tag)
    except ReferenceTooLarge:
        reject()


@settings(deadline=None, max_examples=150)
@given(ideals(), st.sampled_from(ORDER_TAGS))
def test_buchberger_matches_the_tuple_kernel(ideal, tag):
    _, gens = ideal
    assert capped_buchberger(gens, tag) == capped_reference(gens, tag)


@settings(deadline=None, max_examples=150)
@given(ideals(max_gens=2), st.sampled_from(ORDER_TAGS), st.data())
def test_reduce_matches_the_tuple_kernel(ideal, tag, data):
    n, gens = ideal
    gb = capped_buchberger(gens, tag)
    for p in data.draw(st.lists(polynomials(n, max_exponent=4, max_terms=5), max_size=3)):
        assert reduce(p, gb) == reference_reduce(p, gb)


@settings(deadline=None, max_examples=150)
@given(ideals(), st.sampled_from(ORDER_TAGS))
def test_criterion_verdicts_match_the_tuple_kernel(ideal, tag):
    _, polys = ideal
    assert groebner._passes_buchberger_criterion(polys, tag, DEFAULT_LIMITS) == reference_passes(
        polys, tag
    )


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4).flatmap(lambda n: st.sampled_from(enumerate_bipartitions(n))), st.data())
def test_universal_verdicts_match_the_tuple_kernel(shape, data):
    n = shape.size
    tags = data.draw(st.lists(st.sampled_from(ORDER_TAGS), min_size=1, max_size=2, unique=True))
    candidate = [
        g
        for other in enumerate_bipartitions(n)
        if bidominates(shape, other)
        for g in specht_generators(other, n)
    ]
    expected = tuple((tag, reference_passes(candidate, tag)) for tag in tags)
    assert universal_gb_check(shape, n, tags).results == expected


def record_widths(mp) -> list[int]:
    """The field width of every codec the kernel asks for from now on, in order."""
    widths = []
    original = groebner._monomial_codec
    mp.setattr(groebner, "_monomial_codec", lambda *args: widths.append(args[2]) or original(*args))
    return widths


@contextlib.contextmanager
def narrow_fields():
    """Start each packed run at the narrowest width that holds its inputs; yield the widths."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_field_width", lambda largest: largest.bit_length() + 1)
        yield record_widths(mp)


@settings(deadline=None, max_examples=100)
@given(ideals(), st.sampled_from(ORDER_TAGS), st.data())
def test_narrow_fields_match_the_tuple_kernel(ideal, tag, data):
    n, gens = ideal
    p = data.draw(polynomials(n, max_exponent=4, max_terms=5))
    with narrow_fields():
        gb = capped_buchberger(gens, tag)
        remainder = reduce(p, gb)
    assert gb == capped_reference(gens, tag)
    assert remainder == reference_reduce(p, gb)


def test_narrow_fields_rerun_at_double_width():
    gens = [parse_polynomial("x1^3*x2 - x3^3", 3), parse_polynomial("x2^3 - x1*x3", 3)]
    for tag in ORDER_TAGS:
        with narrow_fields() as widths:
            gb = buchberger(gens, tag)
        assert gb == reference_buchberger(gens, tag)
        assert len(widths) > 1 and all(b == 2 * a for a, b in zip(widths, widths[1:])), tag


def test_exponents_past_the_first_width_stay_exact(monkeypatch):
    gb = buchberger([parse_polynomial("x1 - x2^300", 2)], "lex")
    widths = record_widths(monkeypatch)
    assert reduce(parse_polynomial("x1^300", 2), gb) == parse_polynomial("x2^90000", 2)
    assert widths == [16, 32]  # x2^90000 outgrows the 16-bit fields that hold 300
    gens = [parse_polynomial("x1^70000*x2 - x3", 3), parse_polynomial("x2^2 - x1", 3)]
    for tag in ("lex", "degrevlex", "deglex-rev"):
        assert buchberger(gens, tag) == reference_buchberger(gens, tag)
