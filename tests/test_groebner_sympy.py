"""Differential test: reduced Groebner bases of the Specht ideals with n <= 4 against sympy."""

from fractions import Fraction

import pytest

from bnspecht.groebner import specht_ideal_basis
from bnspecht.partitions import enumerate_bipartitions
from bnspecht.polynomials import SparsePolynomial
from bnspecht.tableaux import specht_generators

sympy = pytest.importorskip("sympy")

# our order tag -> sympy's name for the same order, both with x1 > x2 > ... > xn
ORDERS = {"lex": "lex", "degrevlex": "grevlex", "deglex": "grlex"}
CASES = [(s, n, tag) for n in (1, 2, 3, 4) for s in enumerate_bipartitions(n) for tag in ORDERS]


def to_sympy(p: SparsePolynomial, xs):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
            for exps, c in p.terms.items()
        )
    )


def from_sympy(g, xs) -> SparsePolynomial:
    terms = sympy.Poly(g, *xs).terms()
    return SparsePolynomial(len(xs), {exps: Fraction(int(c.p), int(c.q)) for exps, c in terms})


@pytest.mark.parametrize("shape,n,tag", CASES, ids=[f"{s}-n{n}-{t}" for s, n, t in CASES])
def test_reduced_basis_matches_sympy(shape, n, tag):
    xs = sympy.symbols(f"x1:{n + 1}")
    gens = [to_sympy(g, xs) for g in specht_generators(shape, n)]
    oracle = sympy.groebner(gens, *xs, order=ORDERS[tag], domain=sympy.QQ)
    expected = {from_sympy(g, xs) for g in oracle.exprs}
    got = specht_ideal_basis(shape, n, tag).generators
    assert len(got) == len(expected)
    assert set(got) == expected
