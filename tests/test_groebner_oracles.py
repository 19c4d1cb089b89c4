"""Buchberger and the S-pair criteria against two oracles that prune no pair.

`sympy.groebner` is compared on random small ideals with no symmetry, which
reach every branch of the pair update, in all six orders: a `-rev` tag is
sympy's order with the symbols passed in reverse. A criterion-free Buchberger
test, which reduces every S-pair of the candidate set on the packed kernel,
is compared with the verdicts of `universal_gb_check`.
"""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspecht.groebner import buchberger, universal_gb_check
from bnspecht.partitions import bidominates, enumerate_bipartitions
from bnspecht.polynomials import ORDER_TAGS, SparsePolynomial, parse_polynomial
from bnspecht.tableaux import specht_generators
from tuple_kernel import packed_normal_forms

sympy = pytest.importorskip("sympy")

# our base order -> sympy's name for the same order, both with x1 > x2 > ... > xn
SYMPY_ORDERS = {"lex": "lex", "deglex": "grlex", "degrevlex": "grevlex"}


def to_sympy(p: SparsePolynomial, xs):
    return sympy.Add(
        *(
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
            for exps, c in p.terms.items()
        )
    )


def from_sympy(g, xs) -> SparsePolynomial:
    terms = sympy.Poly(g, *xs).terms()
    return SparsePolynomial(len(xs), {exps: Fraction(int(c.p), int(c.q)) for exps, c in terms})


@st.composite
def small_ideals(draw):
    """1-4 generators in n <= 3 variables, each of 1-3 terms with exponents <= 2."""
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    coefficients = st.integers(-3, 3).filter(bool)
    gens = draw(
        st.lists(st.dictionaries(exponents, coefficients, min_size=1, max_size=3), min_size=1, max_size=4)
    )
    return n, [SparsePolynomial(n, terms) for terms in gens]


@settings(deadline=None, max_examples=250)
@given(small_ideals(), st.sampled_from(ORDER_TAGS))
def test_buchberger_matches_sympy_on_random_ideals(ideal, tag):
    n, gens = ideal
    xs = sympy.symbols(f"x1:{n + 1}")
    base, _, rev = tag.partition("-")
    ranked = xs[::-1] if rev else xs  # sympy ranks its symbols first to last
    oracle = sympy.groebner(
        [to_sympy(g, xs) for g in gens], *ranked, order=SYMPY_ORDERS[base], domain=sympy.QQ
    )
    expected = {from_sympy(g, xs) for g in oracle.exprs}
    got = buchberger(gens, tag).generators
    assert len(got) == len(expected)
    assert set(got) == expected


# Under lex, taking the lowest-degree lcm first ran the first ideal's lex-rev basis past
# 60 s, and the smallest lcm first (the normal strategy) ran the second's lex basis past
# 60 s; the sugar strategy needs well under a second for each.
BLOW_UP_IDEALS = [
    (
        3,
        (
            "-3*x1*x2^2*x3^2 + 2*x1*x2^2 - 2*x2",
            "-x1^2*x2 - x1^2*x3 - 3*x1*x2^2*x3",
            "-3*x1^2*x2^2*x3^2 - 2*x1^2*x2*x3^2 + 2*x1*x2*x3",
        ),
    ),
    (
        4,
        (
            "-x1^2*x2^2*x4^2 - x1^2*x2*x3^2",
            "1/2*x1 + 1/2*x2^2*x3*x4^2 + 1/2*x2*x4",
            "-x1^2*x2^2*x3*x4^2 - x2^2*x3^2*x4 - x3",
        ),
    ),
]


@pytest.mark.parametrize("tag", ["lex", "lex-rev"])
@pytest.mark.parametrize("n, texts", BLOW_UP_IDEALS, ids=["n3", "n4"])
def test_lex_pair_selection_keeps_the_coefficients_small(n, texts, tag):
    gens = [parse_polynomial(text, n) for text in texts]
    xs = sympy.symbols(f"x1:{n + 1}")
    ranked = xs[::-1] if tag == "lex-rev" else xs
    # sympy's default normal strategy takes 85 s on the second ideal under lex
    oracle = sympy.groebner(
        [to_sympy(g, xs) for g in gens], *ranked, order="lex", domain=sympy.QQ, method="f5b"
    )
    start = time.perf_counter()
    got = buchberger(gens, tag).generators
    assert time.perf_counter() - start < 5
    assert set(got) == {from_sympy(g, xs) for g in oracle.exprs}


def s_polynomial(f: SparsePolynomial, g: SparsePolynomial, order: str) -> SparsePolynomial:
    """lc(g) * lcm/lm(f) * f - lc(f) * lcm/lm(g) * g: the S-polynomial up to a nonzero factor."""
    lf, lg = f.leading_exponents(order), g.leading_exponents(order)
    lcm = tuple(map(max, lf, lg))
    terms: dict = {}
    for h, lead, factor in ((f, lf, g.terms[lg]), (g, lg, -f.terms[lf])):
        for e, c in h.terms.items():
            target = tuple(a + b - l for a, b, l in zip(lcm, e, lead))
            terms[target] = terms.get(target, 0) + factor * c
    return SparsePolynomial(f.n, terms)


def passes_without_criteria(polys, order: str) -> bool:
    """Buchberger's criterion with every S-pair reduced: no pair is skipped."""
    polys = [g for g in polys if not g.is_zero]
    s_polys = [s_polynomial(f, g, order) for f, g in itertools.combinations(polys, 2)]
    return all(r.is_zero for r in packed_normal_forms(s_polys, polys, order))


def candidate_set(shape, n):
    return [
        g
        for other in enumerate_bipartitions(n)
        if bidominates(shape, other)
        for g in specht_generators(other, n)
    ]


CASES = [(s, n) for n in (1, 2, 3) for s in enumerate_bipartitions(n)]


@pytest.mark.parametrize("shape,n", CASES, ids=[f"{s}-n{n}" for s, n in CASES])
def test_pruned_verdicts_match_the_criterion_free_reference(shape, n):
    candidate = candidate_set(shape, n)
    expected = tuple((tag, passes_without_criteria(candidate, tag)) for tag in ORDER_TAGS)
    assert universal_gb_check(shape, n, ORDER_TAGS).results == expected


def test_pruned_verdicts_match_the_criterion_free_reference_n4_degrevlex():
    for shape in enumerate_bipartitions(4):
        expected = passes_without_criteria(candidate_set(shape, 4), "degrevlex")
        got = universal_gb_check(shape, 4, ["degrevlex"]).results
        assert got == (("degrevlex", expected),), str(shape)
