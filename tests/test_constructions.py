"""Differential tests: the column-group constructors against product-built references.

`vandermonde`, the Specht polynomials and `specht_generators` all come from
one expansion routine, so checks that compare two of them (such as the
glueing identity) no longer test the routine itself. The references below
rebuild the same polynomials the slow way: Vandermondes as products of
binomials, generators from all n! relabellings of the reference bitableau,
and chain lengths by walking every maximal chain.
"""

import itertools
import time

import pytest

from bnspecht.cli import EXIT_RESOURCE, run
from bnspecht.errors import AmbientMismatchError, ResourceLimitExceeded, ResourceLimits
from bnspecht.partitions import bp, enumerate_bipartitions, hasse_diagram
from bnspecht.polynomials import SparsePolynomial, vandermonde, vandermonde_squares
from bnspecht.tableaux import (
    glue_bitableau,
    reference_bitableau,
    specht_generators,
    specht_polynomial_bn,
    specht_polynomial_sn,
)

SHAPES_UP_TO_6 = [(s, n) for n in range(1, 7) for s in enumerate_bipartitions(n)]


def product_vandermonde(n, indices, power=1):
    result = SparsePolynomial.constant(n, 1)
    for j, k in itertools.combinations(indices, 2):
        result = result * (
            SparsePolynomial.variable(n, j, power) - SparsePolynomial.variable(n, k, power)
        )
    return result


def product_specht_bn(bt):
    result = SparsePolynomial.constant(bt.n, 1)
    for col in bt.first.columns() + bt.second.columns():
        result = result * product_vandermonde(bt.n, col, 2)
    for k in sorted(bt.second.entries):
        result = result * SparsePolynomial.variable(bt.n, k)
    return result


def permutation_walk_generators(shape, n):
    """Column-set keys from all n! relabellings, deduplicated, then built by products."""
    ref = reference_bitableau(shape, n)
    keys = set()
    for perm in itertools.permutations(range(1, n + 1)):
        relabel = lambda cols: tuple(sorted(tuple(sorted(perm[e - 1] for e in c)) for c in cols))
        keys.add((relabel(ref.first.columns()), relabel(ref.second.columns())))
    polys = {}
    for first_cols, second_cols in sorted(keys):
        poly = SparsePolynomial.constant(n, 1)
        for col in first_cols + second_cols:
            poly = poly * product_vandermonde(n, col, 2)
        for k in sorted(e for col in second_cols for e in col):
            poly = poly * SparsePolynomial.variable(n, k)
        polys.setdefault(poly.sign_normalized(), None)
    return list(polys)


def walked_chain_lengths(diagram):
    below = {i: [] for i in range(len(diagram.vertices))}
    for u, v in diagram.edges:
        below[u].append(v)
    lengths = set()

    def walk(u, count):
        if not below[u]:
            lengths.add(count)
        for v in below[u]:
            walk(v, count + 1)

    walk(diagram.vertices.index(bp((diagram.n,), ())), 1)
    return lengths


@pytest.mark.parametrize("k", range(7))
def test_vandermonde_matches_binomial_products(k):
    for subset in itertools.combinations(range(1, 7), k):
        for indices in (subset, subset[::-1], subset[1:] + subset[:1]):
            assert vandermonde(6, indices) == product_vandermonde(6, indices)
            assert vandermonde_squares(6, indices) == product_vandermonde(6, indices, 2)
            assert vandermonde_squares(6, indices) == vandermonde(6, indices).substitute_squares()


def test_vandermonde_rejects_indices_outside_the_ring():
    with pytest.raises(AmbientMismatchError):
        vandermonde(3, (1, 4))
    with pytest.raises(AmbientMismatchError):
        vandermonde_squares(3, (0, 2))


@pytest.mark.parametrize("shape,n", SHAPES_UP_TO_6, ids=str)
def test_specht_polynomials_match_products(shape, n):
    bt = reference_bitableau(shape, n)
    assert specht_polynomial_bn(bt) == product_specht_bn(bt)
    glued = glue_bitableau(bt)
    expected = SparsePolynomial.constant(n, 1)
    for col in glued.columns():
        expected = expected * product_vandermonde(n, col)
    assert specht_polynomial_sn(glued, n) == expected


@pytest.mark.parametrize("shape,n", SHAPES_UP_TO_6, ids=str)
def test_generators_match_the_permutation_walk(shape, n):
    assert specht_generators(shape, n) == permutation_walk_generators(shape, n)


def test_chain_lengths_match_the_chain_walk():
    for n in range(1, 8):
        diagram = hasse_diagram(n)
        assert diagram.maximal_chain_lengths() == walked_chain_lengths(diagram)


def test_term_cap_is_checked_before_building():
    tight = ResourceLimits(max_terms=5)
    for shape in (bp((1, 1, 1), ()), bp((), (1, 1, 1))):
        with pytest.raises(ResourceLimitExceeded):
            specht_polynomial_bn(reference_bitableau(shape, 3), tight)
        with pytest.raises(ResourceLimitExceeded):
            specht_generators(shape, 3, tight)
    assert len(specht_generators(bp((1, 1), (1,)), 3, ResourceLimits(max_terms=2))) == 3
    twelve = bp((1,) * 12, ())
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded):
        specht_generators(twelve, 12)
    with pytest.raises(ResourceLimitExceeded):
        specht_polynomial_bn(reference_bitableau(twelve, 12))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["specht", "--shape", "((1,1,1,1,1,1,1,1,1,1,1,1),())", "--n", "12"],
        ["specht", "--shape", "((1,1,1,1,1,1,1,1,1,1,1,1),())", "--n", "12", "--all"],
        ["specht", "--shape", "((1,1,1),())", "--n", "3", "--max-terms", "5"],
        ["certify-cover", "--case", "3", "--a", "3", "--b", "3", "--max-cosets", "5"],
    ],
)
def test_cli_caps_exit_with_resource_code(capsys, argv):
    start = time.perf_counter()
    assert run(argv) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1
    assert '"resource-exceeded"' in capsys.readouterr().out
