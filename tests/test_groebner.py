"""Tests for Buchberger machinery, ideal inclusions and covering certificates."""

import hashlib
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspecht import groebner, polynomials
from bnspecht.errors import (
    DEFAULT_LIMITS,
    AmbientMismatchError,
    ResourceLimitExceeded,
    SizeMismatchError,
)
from bnspecht.groebner import (
    GroebnerBasis,
    ResourceLimits,
    buchberger,
    covering_certificate,
    ideal_contains,
    inclusion_by_certificates,
    radical_report,
    reduce,
    specht_ideal_basis,
    specht_ideal_contains,
    universal_gb_check,
)
from bnspecht.invariants import bn_orbit
from bnspecht.partitions import (
    Partition,
    bidominates,
    bp,
    conjugate,
    enumerate_bipartitions,
    hasse_diagram,
    parse_bipartition,
)
from bnspecht.polynomials import (
    ORDER_TAGS,
    SignedPermutation,
    SparsePolynomial,
    act,
    parse_polynomial,
)
from bnspecht.tableaux import (
    Bitableau,
    Tableau,
    _column_assignments,
    _column_heights,
    _reference_columns,
    _specht_degree,
    reference_bitableau,
    specht_generators,
    specht_polynomial_bn,
)


def p(text, n):
    return parse_polynomial(text, n)


def test_buchberger_trivial_cases():
    one = SparsePolynomial.constant(2, 1)
    gb = buchberger([one.scale(3)], "lex")
    assert gb.generators == (one,)
    assert gb.is_trivial


def test_buchberger_small_specht_ideals():
    gb = specht_ideal_basis(bp((1,), (1,)), 2)
    assert set(gb.generators) == {p("x1", 2), p("x2", 2)}
    gb = specht_ideal_basis(bp((1, 1), ()), 2)
    assert gb.generators == (p("x1^2 - x2^2", 2),)
    gb = specht_ideal_basis(bp((2,), ()), 2)
    assert gb.generators == (SparsePolynomial.constant(2, 1),)


def test_buchberger_textbook_example():
    # twisted cubic: reduced lex basis eliminates down to the defining relations
    gens = [p("x1^2 - x2", 3), p("x1^3 - x3", 3)]
    gb = buchberger(gens, "lex")
    assert set(gb.generators) == {
        p("x1^2 - x2", 3),
        p("x1*x2 - x3", 3),
        p("x1*x3 - x2^2", 3),
        p("x2^3 - x3^2", 3),
    }


def test_buchberger_rejects_mixed_rings():
    with pytest.raises(AmbientMismatchError):
        buchberger([p("x1", 2), p("x1", 3)])


def test_reduce_examples():
    gb = buchberger([p("x1", 2), p("x2", 2)])
    assert reduce(p("x1", 2), gb).is_zero
    assert reduce(p("x1^2 - x2^2", 2), gb).is_zero
    gb2 = buchberger([p("x1^2 - x2^2", 2)])
    assert reduce(p("x1", 2), gb2) == p("x1", 2)
    with pytest.raises(AmbientMismatchError):
        reduce(p("x1", 3), gb)


@pytest.mark.parametrize("gens", [[], [SparsePolynomial.zero(2)]], ids=["no-gens", "zero"])
def test_empty_basis_is_the_zero_ideal(gens):
    gb = buchberger(gens)
    assert gb.generators == ()
    # the basis keeps the ring of its generators, n = 0 when there are none
    q = p("x1^2 - 3", gb.n) if gb.n else p("-3", 0)
    assert reduce(q, gb) == q
    assert not ideal_contains(gb, [q])
    assert ideal_contains(gb, [SparsePolynomial.zero(gb.n)])
    assert not gb.is_trivial
    with pytest.raises(AmbientMismatchError):
        reduce(p("x1^2 - 3", 5), gb)
    with pytest.raises(AmbientMismatchError):
        ideal_contains(gb, [SparsePolynomial.zero(gb.n), SparsePolynomial.zero(4)])


def test_zero_ideal_keeps_its_ring_and_checks_its_order():
    assert buchberger([SparsePolynomial.zero(3)], "lex") == GroebnerBasis((), "lex", 3)
    assert buchberger([SparsePolynomial.zero(3)] * 2, "degrevlex-rev").n == 3
    for gens in ([], [SparsePolynomial.zero(3)]):
        with pytest.raises(ValueError, match="unknown monomial order 'bogus'"):
            buchberger(gens, "bogus")


def test_reduce_is_idempotent_and_additive():
    gb = specht_ideal_basis(bp((1, 1), (1,)), 3)
    for text in ("x1^4*x2 - x3", "x1*x2*x3 + x2^2", "x1^2 - x2^2 + 1"):
        q = p(text, 3)
        r = reduce(q, gb)
        assert reduce(r, gb) == r
    a, b = p("x1^3*x3", 3), p("x2^2 - x3^2 + x1", 3)
    assert reduce(a + b, gb) == reduce(reduce(a, gb) + reduce(b, gb), gb)


def test_reduce_finds_the_leading_terms_once_per_basis(monkeypatch):
    gb = specht_ideal_basis(bp((1, 1), (1,)), 3)
    calls, scanned = [], []
    original = groebner._pack_divisors
    monkeypatch.setattr(
        groebner, "_pack_divisors", lambda *args: calls.append(args) or original(*args)
    )
    largest_exponent = groebner._largest_exponent

    def scan(polys):
        polys = tuple(polys)
        scanned.extend(polys)
        return largest_exponent(polys)

    monkeypatch.setattr(groebner, "_largest_exponent", scan)
    polys = [p(text, 3) for text in ("x1^4*x2 - x3", "x1*x2*x3 + x2^2", "x1^2 - x2^2 + 1")]
    remainders = [reduce(q, gb) for q in polys]
    assert ideal_contains(gb, [q - r for q, r in zip(polys, remainders)])
    assert len(calls) == 1
    # each reduce reads its own polynomial's exponents; the generators' are read once
    assert len(scanned) == 6 + len(gb.generators)
    with pytest.raises(AmbientMismatchError):
        reduce(p("x1", 2), gb)


def test_reduced_basis_is_independent_of_generator_order():
    gens = specht_generators(bp((1, 1), (1,)), 3)
    forward = buchberger(gens, "deglex")
    backward = buchberger(list(reversed(gens)), "deglex")
    assert forward.generators == backward.generators


def test_resource_limits_trip():
    gens = specht_generators(bp((1, 1), (2,)), 4)
    with pytest.raises(ResourceLimitExceeded):
        buchberger(gens, "lex", ResourceLimits(max_basis=2))


@pytest.mark.parametrize("field", ["max_basis", "max_terms", "max_cosets"])
def test_a_cap_must_be_non_negative(field):
    assert getattr(ResourceLimits(**{field: 0}), field) == 0
    with pytest.raises(ValueError, match=f"{field} must be non-negative, got -1"):
        ResourceLimits(**{field: -1})


def test_basis_cap_holds_on_the_input_generators():
    gens = [p("x1", 3), p("x2", 3), p("x3", 3)]
    assert len(buchberger(gens, "lex").generators) == 3
    with pytest.raises(ResourceLimitExceeded, match="basis size 3 exceeds cap 2"):
        buchberger(gens, "lex", ResourceLimits(max_basis=2))


def test_reduce_holds_to_the_term_cap():
    gb = buchberger([p("x1^2", 4)])
    cube = p("(x2 + x3 + x4)^6", 4)
    assert len(cube.terms) == 28
    assert reduce(cube, gb) == cube
    with pytest.raises(ResourceLimitExceeded, match="term count"):
        reduce(cube, gb, ResourceLimits(max_terms=10))


def test_term_cap_holds_inside_the_inter_reduction():
    """Reducing x1^30 by x1 - x2 - ... - x6 in lex builds 46,376 terms; the cap stops it early."""
    gens = [p("x1 - x2 - x3 - x4 - x5 - x6", 6), p("x1^30", 6)]
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded, match="term count"):
        buchberger(gens, "lex", ResourceLimits(max_terms=2000))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("order", ORDER_TAGS)
def test_a_negative_exponent_is_rejected_not_widened_forever(order):
    """A negative exponent would set a guard bit at every field width; construction rejects it.

    So no Groebner input, a hand-built basis included, can hold one.
    """
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"negative exponent in x1\^-1"):
        SparsePolynomial(2, {(-1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match=r"negative exponent in x1\^-1"):
        GroebnerBasis((SparsePolynomial(2, {(-1, 0): 1}),), order, 2)
    assert time.perf_counter() - start < 1


def test_covering_certificates_match_the_recorded_bench_digests():
    """Every covering certificate of the poly-construct benchmark, against its recorded digest."""
    expected = json.loads((Path(__file__).parents[1] / "bench" / "expected.json").read_text())
    prefix = "poly-construct/cover/"
    pinned = {key: digest for key, digest in expected.items() if key.startswith(prefix)}
    for key, digest in pinned.items():
        case, a, b = map(int, key[len(prefix) :].split("/"))
        text = json.dumps(covering_certificate(case, a, b).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, key
    assert len(pinned) == 34


def test_reduced_bases_match_the_recorded_bench_digests():
    """Every n = 5 and n = 6 basis of the groebner-sweep benchmark, against its recorded digest."""
    expected = json.loads((Path(__file__).parents[1] / "bench" / "expected.json").read_text())
    prefix = "groebner-sweep/basis/"
    pinned = {
        key: digest
        for key, digest in expected.items()
        if key.startswith((prefix + "n5/", prefix + "n6/"))
    }
    for key, digest in pinned.items():
        n, order, shape = key[len(prefix) :].split("/", 2)
        gb = specht_ideal_basis(parse_bipartition(shape), int(n[1:]), order)
        text = f"{gb.order} {gb.n}\n" + "\n".join(map(str, gb.generators))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, key
    assert len(pinned) == 113


def test_specht_ideal_contains_small_chain():
    assert specht_ideal_contains(bp((1,), (1,)), bp((1, 1), ()), 2)
    assert not specht_ideal_contains(bp((1, 1), ()), bp((1,), (1,)), 2)
    assert specht_ideal_contains(bp((2,), ()), bp((1,), (1,)), 2)
    assert specht_ideal_contains(bp((1,), (1,)), bp((1,), (1,)), 2)
    with pytest.raises(SizeMismatchError):
        specht_ideal_contains(bp((1,), ()), bp((1,), (1,)), 2)


def test_specht_degree_is_the_degree_of_every_generator_term():
    # which also pins that every Specht ideal is generated in one degree
    for n in range(8):
        for shape in enumerate_bipartitions(n):
            degrees = {sum(e) for g in specht_generators(shape, n) for e in g.terms}
            assert degrees == {_specht_degree(*_column_heights(shape))}, str(shape)


@pytest.mark.parametrize(
    "n,orders",
    [(n, ORDER_TAGS) for n in range(1, 5)] + [(5, ["degrevlex"])],
    ids=["n1", "n2", "n3", "n4", "n5-degrevlex"],
)
def test_truncated_inclusion_matches_bidominance_and_the_full_basis(n, orders):
    shapes = enumerate_bipartitions(n)
    refs = {b: specht_polynomial_bn(reference_bitableau(b, n)) for b in shapes}
    for order in orders:
        for a in shapes:
            gb = specht_ideal_basis(a, n, order)
            for b in shapes:
                got = specht_ideal_contains(a, b, n, order)
                assert got == bidominates(a, b) == reduce(refs[b], gb).is_zero, (order, a, b)


def test_inclusion_in_y_matches_the_x_route_on_every_small_pair():
    """Every pair for n <= 4, in every order: the y-route, the x-route and bidominance agree."""
    comparisons = 0
    for n in range(1, 5):
        shapes = enumerate_bipartitions(n)
        for order in ORDER_TAGS:
            for a in shapes:
                for b in shapes:
                    got = specht_ideal_contains(a, b, n, order)
                    assert got == specht_ideal_contains_in_x(a, b, n, order), (order, a, b)
                    assert got == bidominates(a, b), (order, a, b)
                    comparisons += 1
    assert comparisons == len(ORDER_TAGS) * (2**2 + 5**2 + 10**2 + 20**2)


@pytest.mark.parametrize("n", range(1, 7))
def test_inclusion_in_y_matches_the_x_route_on_every_covering_edge(n):
    diagram = hasse_diagram(n)
    for i, j in diagram.edges:
        upper, lower = diagram.vertices[i], diagram.vertices[j]
        assert bidominates(upper, lower)
        assert specht_ideal_contains(upper, lower, n), (upper, lower)
        assert specht_ideal_contains_in_x(upper, lower, n), (upper, lower)


@pytest.mark.parametrize(
    "a,b",
    [(bp((1, 1, 1), ()), bp((3,), ())), (bp((3,), ()), bp((1, 1, 1), ()))],
    ids=["decided-by-degree", "decided-by-reduction"],
)
def test_specht_ideal_contains_rejects_an_unknown_order(a, b):
    with pytest.raises(ValueError, match="unknown monomial order 'bogus'"):
        specht_ideal_contains(a, b, 3, "bogus")


def test_specht_ideal_contains_matches_bidominance_n3():
    shapes = enumerate_bipartitions(3)
    for a in shapes:
        gb = specht_ideal_basis(a, 3)
        for b in shapes:
            got = ideal_contains(gb, specht_generators(b, 3))
            assert got == bidominates(a, b), (str(a), str(b))


def test_covering_certificate_two_coset_expansion():
    cert = covering_certificate(3, 1, 1)
    assert cert.verified
    assert cert.target == p("x1^2 - x2^2", 3)
    assert cert.symmetrized == p("(x1^2 - x3^2) - (x2^2 - x3^2)", 3)


def test_covering_certificate_three_cosets():
    assert covering_certificate(3, 1, 2).verified
    assert covering_certificate(3, 2, 1).verified


def test_covering_certificate_case4():
    cert = covering_certificate(4, 1, 0)
    assert cert.verified
    assert cert.target == p("x1^2 - x2^2", 2)
    assert covering_certificate(4, 2, 1).verified


def test_covering_certificate_validation():
    with pytest.raises(ValueError):
        covering_certificate(1, 1, 1)
    with pytest.raises(ValueError):
        covering_certificate(3, 0, 1)
    with pytest.raises(ResourceLimitExceeded):
        covering_certificate(3, 3, 3, ResourceLimits(max_cosets=5))


def test_covering_certificate_reads_integers():
    """case, a and b are read with operator.index: a float, even 2.0, raises ValueError."""
    with pytest.raises(ValueError, match="non-integer a 2.0"):
        covering_certificate(3, 2.0, 1)
    with pytest.raises(ValueError, match="non-integer case 3.0"):
        covering_certificate(3.0, 2, 1)
    with pytest.raises(ValueError, match="non-integer b 0.5"):
        covering_certificate(3, 1, 0.5)
    cert = covering_certificate(3, True, 0)
    assert cert == covering_certificate(3, 1, 0)
    assert type(cert.a) is int and '"a": 1,' in json.dumps(cert.to_json())


def test_certificate_json_shape():
    doc = covering_certificate(3, 1, 1).to_json()
    assert doc["case"] == 3 and doc["A"] == [1] and doc["B1"] == [2] and doc["B2"] == [3]
    assert doc["verified"] is True
    assert doc["target"] == "x1^2 - x2^2"


def test_inclusion_by_certificates_small():
    report = inclusion_by_certificates(bp((2,), ()), bp((1, 1), ()), 2)
    assert report.included
    assert report.chain == (bp((2,), ()), bp((1,), (1,)), bp((1, 1), ()))
    assert report.verified_steps == (True, True)
    same = inclusion_by_certificates(bp((1,), (1,)), bp((1,), (1,)), 2)
    assert same.chain == (bp((1,), (1,)),) and same.verified_steps == ()


def test_inclusion_by_certificates_large_chain_without_groebner():
    report = inclusion_by_certificates(bp((3, 2), (2, 1)), bp((2, 1, 1), (3, 1)), 8)
    assert report.included and report.verified_steps == ()
    chain = report.chain
    assert chain[0] == bp((3, 2), (2, 1)) and chain[-1] == bp((2, 1, 1), (3, 1))
    for upper, lower in zip(chain, chain[1:]):
        assert bidominates(upper, lower) and upper != lower


def test_inclusion_by_certificates_rejects_incomparable():
    with pytest.raises(ValueError):
        inclusion_by_certificates(bp((1, 1), ()), bp((1,), (1,)), 2)


# Reference routes. `specht_ideal_contains` and `radical_report` once decided
# their questions this way; the tests keep each as an independent check.


def specht_ideal_contains_in_x(a, b, n, order="lex", limits=DEFAULT_LIMITS):
    """Specht-ideal inclusion decided in Q[x], the route `specht_ideal_contains` replaced.

    Past the same degree cut, the basis of a's generators is grown through
    the S-pairs of degree at most d = deg f, for b's reference polynomial f,
    and f is reduced by it.
    """
    d = _specht_degree(*_column_heights(b))
    if _specht_degree(*_column_heights(a)) > d:
        return False
    gens = specht_generators(a, n, limits)
    f = specht_polynomial_bn(reference_bitableau(b, n), limits)

    def contains(codec):
        basis = list(groebner._grown_basis(gens, codec, limits, d))
        return not groebner._normal_form(codec.pack_terms(f.terms), basis, codec, limits)

    return groebner._packed_run(n, order, [*gens, f], contains)


def radical_membership(f, gens, limits=DEFAULT_LIMITS):
    """True iff f vanishes on the zero set of gens.

    By the auxiliary-variable trick (Rabinowitsch; Cox, Little and O'Shea,
    Ideals, Varieties, and Algorithms, ch. 4 sec. 2), that holds iff 1 lies
    in the ideal of gens and 1 - y f in one more variable y. Its basis is
    grown under deglex and the run stops at the first admitted element that
    is a nonzero constant; only a non-member grows the whole basis.
    """
    gens = list(gens)
    if not gens:
        return f.is_zero
    n = gens[0].n
    if f.n != n or any(g.n != n for g in gens):
        raise AmbientMismatchError("polynomials live in different rings")
    lifted = [g.extend(n + 1) for g in gens]
    y = SparsePolynomial.variable(n + 1, n + 1)
    lifted.append(SparsePolynomial.constant(n + 1, 1) - y * f.extend(n + 1))

    def finds_unit(codec):
        # the packed key 0 is the monomial 1, which leads only a constant
        return any(lead == 0 for _, lead, _, _ in groebner._grown_basis(lifted, codec, limits))

    return groebner._packed_run(n + 1, "deglex", lifted, finds_unit)


def test_radical_membership():
    assert radical_membership(p("x1", 2), [p("x1^2", 2)])
    assert not radical_membership(p("x1", 2), [p("x2", 2)])
    assert radical_membership(p("x1 + x2", 2), specht_generators(bp((1,), (1,)), 2))


def _rabinowitsch_is_trivial(f, gens):
    n = f.n
    lifted = [g.extend(n + 1) for g in gens]
    y = SparsePolynomial.variable(n + 1, n + 1)
    lifted.append(SparsePolynomial.constant(n + 1, 1) - y * f.extend(n + 1))
    return buchberger(lifted, "deglex").is_trivial


def test_radical_membership_matches_the_full_basis():
    for n in range(1, 4):
        shapes = enumerate_bipartitions(n)
        refs = [specht_polynomial_bn(reference_bitableau(b, n)) for b in shapes]
        for a in shapes:
            gens = specht_generators(a, n)
            for f in refs:
                assert radical_membership(f, gens) == _rabinowitsch_is_trivial(f, gens), (a, f)


@pytest.mark.parametrize(
    "f,gens,expected",
    [
        ("x1", ["x1^2"], True),
        ("x1", ["x2"], False),
        ("x1 + x2", ["x1", "x2"], True),
        ("x1*x2 + 1", ["x1^2 + x2 - 1", "3"], True),  # a constant generator
        ("0", ["x1^2 - x2"], True),
        ("x1 + 1", ["x1^2 - x2", "x2 - 1"], False),  # x1 = 1 is a zero
        ("x1^2 - 1", ["x1^2 - x2", "x2 - 1"], True),
    ],
)
def test_radical_membership_examples_match_the_full_basis(f, gens, expected):
    f, gens = p(f, 2), [p(g, 2) for g in gens]
    assert radical_membership(f, gens) is expected
    assert _rabinowitsch_is_trivial(f, gens) is expected


def test_radical_report_agreement_n2():
    report = radical_report(bp((1,), (1,)), 2)
    assert report["agreement"] is True
    assert len(report["samples"]) == 5


def test_radical_report_matches_the_auxiliary_variable_route():
    """Every radical verdict for n <= 4, against `radical_membership` (Rabinowitsch)."""
    comparisons = 0
    for n in range(1, 5):
        shapes = enumerate_bipartitions(n)
        refs = [specht_polynomial_bn(reference_bitableau(b, n)) for b in shapes]
        for shape in shapes:
            gens = specht_generators(shape, n)
            samples = radical_report(shape, n)["samples"]
            for other, f, sample in zip(shapes, refs, samples):
                assert sample["sample_shape"] == str(other)
                assert sample["in_radical"] == radical_membership(f, gens), (shape, other)
                comparisons += 1
    assert comparisons == 2**2 + 5**2 + 10**2 + 20**2


@pytest.mark.parametrize("n,digest", [(4, "1730c7a029af660e"), (5, "7d33ad40c90a2e24")])
def test_radical_halves_stay_pinned(n, digest):
    """The radical reports of every shape, as the Rabinowitsch route wrote them."""
    reports = [radical_report(shape, n) for shape in enumerate_bipartitions(n)]
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _named_generator(shape, columns, n):
    """The Specht generator of the shape whose columns, first tableau's first, are these."""
    split = len(conjugate(shape.left).parts)
    first, second = Tableau.from_columns(columns[:split]), Tableau.from_columns(columns[split:])
    return specht_polynomial_bn(Bitableau(first, second, n))


def test_radical_certificates_exist_exactly_for_non_members(monkeypatch):
    """A certificate (z, columns) exists for a sample iff it is not an ideal member.

    Each certificate is checked by expanded evaluation: every generator of the
    shape vanishes at z and the named generator of the sample does not. The
    report must take every non-member's radical verdict from this search.
    """
    searched = {}
    search = groebner._radical_witness

    def recorded(other, zeros, limits):
        searched[other] = search(other, zeros, limits)
        return searched[other]

    monkeypatch.setattr(groebner, "_radical_witness", recorded)
    certificates = 0
    for n in range(1, 6):
        shapes = enumerate_bipartitions(n)
        for shape in shapes:
            searched.clear()
            samples = radical_report(shape, n)["samples"]
            zeros = groebner._vanishing_representatives(shape, n, DEFAULT_LIMITS)
            gens = specht_generators(shape, n)
            vanishes = {z: all(g.evaluate(z) == 0 for g in gens) for z in zeros}
            for other, sample in zip(shapes, samples):
                certificate = search(other, zeros, DEFAULT_LIMITS)
                assert (certificate is None) == sample["in_ideal"], (shape, other)
                if certificate is None:
                    continue
                assert other in searched, (shape, other)
                assert searched[other] == certificate and sample["in_radical"] is False
                z, columns = certificate
                assert vanishes[z], (shape, z)
                generator = _named_generator(other, columns, n)
                assert {generator, -generator} & set(specht_generators(other, n))
                assert generator.evaluate(z) != 0, (shape, other, z)
                certificates += 1
    assert certificates == 1 + 11 + 51 + 225 + 763  # the pairs that do not bidominate


def test_universal_gb_check_reports():
    rep = universal_gb_check(bp((2,), ()), 2, ["lex"])
    assert dict(rep.results)["lex"] is True  # the candidate set contains 1
    rep = universal_gb_check(bp((1,), (1,)), 2, ["lex", "deglex"])
    assert set(dict(rep.results)) == {"lex", "deglex"}
    doc = rep.to_json()
    assert doc["shape"] == "((1),(1))" and doc["n"] == 2
    with pytest.raises(SizeMismatchError):
        universal_gb_check(bp((1,), ()), 2, ["lex"])


def test_universal_gb_check_rejects_an_unknown_order_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("specht_generators called before the order tags were checked")

    monkeypatch.setattr(groebner, "specht_generators", refuse)
    with pytest.raises(ValueError, match="bogus"):
        universal_gb_check(bp((4,), (1,)), 5, ["lex", "bogus"])


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(enumerate_bipartitions(3)), st.sampled_from(enumerate_bipartitions(3)))
def test_groebner_side_never_contradicts_the_order_side(a, b):
    assert specht_ideal_contains(a, b, 3) == bidominates(a, b)


def test_universal_gb_check_n4_finding_survives_pruning():
    # the candidate set of ((1,1,1),(1)) is not a Groebner basis in any of these
    # orders; every other n = 4 candidate set is one under degrevlex
    orders = ["lex", "deglex", "degrevlex", "lex-rev"]
    rep = universal_gb_check(bp((1, 1, 1), (1,)), 4, orders)
    assert rep.results == tuple((tag, False) for tag in orders)
    for shape in enumerate_bipartitions(4):
        if shape != bp((1, 1, 1), (1,)):
            rep = universal_gb_check(shape, 4, ["degrevlex"])
            assert rep.results == (("degrevlex", True),), str(shape)


def test_specht_paths_build_no_partition_or_tableau(monkeypatch):
    """Partitions, tableaux and bitableaux constructed, counted at their validation.

    `specht_ideal_contains` and `specht_generators` read each shape's column
    heights and reference columns as plain tuples and construct none.
    `radical_report` constructs only the partitions of its own
    `enumerate_bipartitions(n)`; the class representatives are cached per n,
    so they are built before counting starts.
    """
    pairs = [(a, b) for a in enumerate_bipartitions(4) for b in enumerate_bipartitions(4)]
    shapes = [(shape, n) for n in range(6) for shape in enumerate_bipartitions(n)]
    radical_shapes = enumerate_bipartitions(3)
    radical_report(radical_shapes[0], 3)
    built = Counter()
    for cls in (Partition, Tableau, Bitableau):

        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    verdicts = [specht_ideal_contains(a, b, 4, "degrevlex") for a, b in pairs]
    assert (len(verdicts), sum(verdicts)) == (400, sum(bidominates(a, b) for a, b in pairs))
    for shape, n in shapes:
        specht_generators(shape, n)
    assert built == Counter()
    enumerate_bipartitions(3)
    own = Counter(built)
    assert own == Counter({"Partition": 7})  # p(0) + p(1) + p(2) + p(3)
    for shape in radical_shapes:
        built.clear()
        radical_report(shape, 3)
        assert built == own, str(shape)


def reference_y_generators(a, b, n):
    """(odd-slot pattern, generator) for each Q[y] generator of a that b's inclusion keeps.

    The loop `specht_ideal_contains` replaced: one `_column_expansion` per
    assignment, its odd variables the second tableau's entries that lie
    outside e_f, kept when their count fits under the degree of b's reference.
    """
    heights, split = _column_heights(a)
    d, d_a = _specht_degree(*_column_heights(b)), _specht_degree(heights, split)
    if d_a > d:
        return []
    spare = (d - b.right.size) // 2 - (d_a - a.right.size) // 2
    out = []
    for chosen in _column_assignments(heights, split, n, DEFAULT_LIMITS):
        pattern = tuple(e <= b.left.size for col in chosen[split:] for e in col)
        if sum(pattern) <= spare:
            odd = [e for col in chosen[split:] for e in col if e <= b.left.size]
            out.append((pattern, polynomials._column_expansion(n, chosen, 1, odd)))
    return out


def test_inclusion_builds_one_product_per_odd_slot_pattern(monkeypatch):
    """Over the 400 n = 4 degrevlex pairs: a's Q[y] generators, relabelled from few products.

    Each distinct odd-slot pattern among the kept generators costs one
    `_column_product`; the generators are those of the reference loop, in its
    order, and `_column_expansion` builds only b's reference polynomial.
    """
    products, expanded, grown = [], [], []

    def wrap(name, record):
        original = getattr(groebner, name)

        def wrapper(*args):
            record(args)
            return original(*args)

        monkeypatch.setattr(groebner, name, wrapper)

    wrap("_column_product", products.append)
    wrap("_column_expansion", lambda args: expanded.append(args[1]))
    wrap("_grown_basis", lambda args: grown.append(list(args[0])))
    shapes = enumerate_bipartitions(4)
    for a, b in [(a, b) for a in shapes for b in shapes]:
        for log in (products, expanded, grown):
            log.clear()
        verdict = specht_ideal_contains(a, b, 4, "degrevlex")
        assert verdict == bidominates(a, b), (a, b)
        reference = reference_y_generators(a, b, 4)
        if reference:
            assert expanded == [_reference_columns(_column_heights(b)[0])], (a, b)
            assert grown[0] == [g for _, g in reference], (a, b)
        else:
            assert expanded == grown == [], (a, b)
        assert len(products) == len({pattern for pattern, _ in reference}), (a, b)


def test_pair_work_stays_pinned(monkeypatch):
    """S-polynomials formed and normal forms taken over one fixed recipe.

    The counts move only if the pair queue or its pruning changes: a loop
    without the B_k criterion forms 1,236 and takes 2,642. They read 2,006
    and 4,070 while `radical_report` ran a Rabinowitsch search per sample;
    those runs formed 261 and took 571 of them, and witness searches at orbit
    representatives replaced them: 2,006 - 261 = 1,745 and 4,070 - 571 = 3,499.
    Of those, the n = 5 covering edges formed 715 and took 1,657 in Q[x];
    decided in Q[y] they form 32 and take 626: 1,745 - 715 + 32 = 1,062 and
    3,499 - 1,657 + 626 = 2,468.
    """
    calls = {"_s_polynomial": 0, "_normal_form": 0}

    def counted(name):
        original = getattr(groebner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(groebner, name, wrapper)

    counted("_s_polynomial")
    counted("_normal_form")
    for n in (3, 4):
        for shape in enumerate_bipartitions(n):
            for order in ("lex", "deglex", "degrevlex"):
                specht_ideal_basis(shape, n, order)
            universal_gb_check(shape, n, ["degrevlex"])
    for shape in enumerate_bipartitions(3):
        radical_report(shape, 3)
    diagram = hasse_diagram(5)
    for i, j in diagram.edges:
        upper, lower = diagram.vertices[i], diagram.vertices[j]
        assert specht_ideal_contains(upper, lower, 5, "degrevlex")
    assert calls == {"_s_polynomial": 1062, "_normal_form": 2468}


def test_products_and_kernel_outputs_skip_the_exponent_check(monkeypatch):
    """Only a recipe's own constructions check exponents: products and kernel outputs do not.

    Arithmetic and the Groebner kernel build from valid keys through
    `SparsePolynomial._of_clean`, so `polynomials._exponents` runs once per
    exponent tuple that a recipe hands to `__init__` itself. Covering
    certificate (3, 3, 2) hands on 10: its binomials x_i^2 - x_7^2 for i in
    A = (1, 2, 3) are two one-term `variable` calls each, and its core holds
    the h = 4 terms of V^2(A + (6,)) that decrease on A. The products, the
    alternating sum and the target check none, nor do the
    n = 4 Specht bases, the orbit of x2*x3*(x1^2 - 1), its basis and the
    reductions against it.
    """
    callers = Counter()
    check = polynomials._exponents

    def counted(exps):
        callers[sys._getframe(2).f_code.co_name] += 1  # the caller of `__init__`
        return check(exps)

    P = p("x2*x3*(x1^2 - 1)", 4)
    label_gens = specht_generators(bp((1, 1), (2,)), 4)
    outside = p("x1^3*x2 + x4", 4)
    monkeypatch.setattr(polynomials, "_exponents", counted)
    assert covering_certificate(3, 3, 2).verified
    assert callers == {"variable": 6, "covering_certificate": 4}
    callers.clear()
    for shape in enumerate_bipartitions(4):
        specht_ideal_basis(shape, 4, "lex")
    gb = buchberger(bn_orbit(P), "degrevlex")
    assert ideal_contains(gb, label_gens)
    assert reduce(outside, gb) == reduce(outside - P * outside, gb) != 0
    assert callers == {}


N5_FINDINGS = [
    ("((1,1,1,1),(1))", False),
    ("((2,1,1),(1))", False),
    ("((1,1,1),(1,1))", False),
    ("((1,1,1),(2))", False),
    ("((1,1),(1,1,1))", False),
    ("((2,2),(1))", True),
    ("((1,1,1,1,1),())", True),
]


@pytest.mark.parametrize("shape,passed", N5_FINDINGS, ids=[s for s, _ in N5_FINDINGS])
def test_universal_gb_check_n5_findings(shape, passed):
    # the same verdict in every order: five candidate sets fail and these two pass
    rep = universal_gb_check(parse_bipartition(shape), 5, ORDER_TAGS)
    assert rep.results == tuple((tag, passed) for tag in ORDER_TAGS)


# Metamorphic relations of the variable reversal w0: x_i -> x_{n+1-i}. The
# X-rev order is X with its variables ranked in reverse, so w0 carries each
# X computation onto the X-rev one; sign flips keep every order's monomials.

BASE_ORDERS = ("lex", "deglex", "degrevlex")


def _w0(n):
    return SignedPermutation.from_permutation(range(n, 0, -1))


def _small_ideals(count=60, seed=2029):
    """A seeded sample: n <= 3, exponents <= 2, at most 3 generators of at most 3 terms,
    and coefficients in +-{1, 2, 3}. Fixed, since random ideals can run long."""
    rng = random.Random(seed)
    ideals = []
    for _ in range(count):
        n = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.choice((1, 2, 3, -1, -2, -3))
                for _ in range(rng.randint(1, 3))
            }
            gens.append(SparsePolynomial(n, terms))
        ideals.append((n, gens))
    return ideals


def test_reversed_order_specht_bases_are_w0_images():
    cases = 0
    for n in range(1, 5):
        w0 = _w0(n)
        for shape in enumerate_bipartitions(n):
            for order in BASE_ORDERS:
                forward = specht_ideal_basis(shape, n, order).generators
                reversed_ = specht_ideal_basis(shape, n, f"{order}-rev").generators
                assert reversed_ == tuple(act(w0, g) for g in forward), (shape, order)
                cases += 1
    assert cases == 111


def test_reversed_order_buchberger_is_w0_conjugate_on_any_ideal():
    for n, gens in _small_ideals():
        w0 = _w0(n)
        moved = [act(w0, g) for g in gens]
        for order in BASE_ORDERS:
            expected = tuple(act(w0, g) for g in buchberger(moved, order).generators)
            assert buchberger(gens, f"{order}-rev").generators == expected, (gens, order)


def test_reversed_order_verdicts_agree():
    comparisons = 0
    for n in range(1, 5):
        shapes = enumerate_bipartitions(n)
        for shape in shapes:
            for lower in shapes:
                for order in BASE_ORDERS:
                    forward = specht_ideal_contains(shape, lower, n, order)
                    assert specht_ideal_contains(shape, lower, n, f"{order}-rev") == forward
                    comparisons += 1
    assert comparisons == 1587


def test_reversed_order_verdicts_match_the_direct_criterion():
    """Each derived X-rev verdict of `universal_gb_check`, against the criterion run under X-rev."""
    checks = 0
    for n in range(1, 5):
        diagram = hasse_diagram(n)
        for shape in enumerate_bipartitions(n):
            below = diagram.vertices_below(shape)
            candidate = [g for other in below for g in specht_generators(other, n)]
            verdicts = universal_gb_check(shape, n, ORDER_TAGS).results
            assert [tag for tag, _ in verdicts] == list(ORDER_TAGS)
            for tag, passed in verdicts:
                if tag.endswith("-rev"):
                    direct = groebner._passes_buchberger_criterion(candidate, tag, DEFAULT_LIMITS)
                    assert passed == direct, (shape, tag)
                    checks += 1
    assert checks == 3 * (2 + 5 + 10 + 20)


def test_reduce_commutes_with_sign_flips():
    rng = random.Random(2030)
    for n, gens in _small_ideals():
        for order in ORDER_TAGS:
            gb = buchberger(gens, order)
            f = SparsePolynomial(
                n, {tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(1, 3) for _ in range(4)}
            )
            signs = tuple(rng.choice((1, -1)) for _ in range(n))
            flip = SignedPermutation(tuple(range(1, n + 1)), signs)
            flipped = buchberger([act(flip, g) for g in gb.generators], order)
            assert reduce(act(flip, f), flipped) == act(flip, reduce(f, gb)), (gens, order, flip)
