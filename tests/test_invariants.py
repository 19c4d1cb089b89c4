"""Tests for monomial profiles, subideal detection and the symmetrization identity."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspecht.errors import (
    AmbientMismatchError,
    NoConclusionError,
    NotApplicableError,
    ResourceLimitExceeded,
)
from bnspecht.groebner import ResourceLimits, buchberger, ideal_contains
from bnspecht import invariants
from bnspecht.invariants import (
    bn_orbit,
    detect_specht_subideal,
    detection_report,
    excluded_orbit_classes,
    gamma,
    gamma_star,
    maximal_detected,
    monomial_profile,
    rank_bound,
    verify_symmetrization,
)
from bnspecht.partitions import bidominates, bp, conjugate, enumerate_bipartitions
from bnspecht.polynomials import (
    Monomial,
    SignedPermutation,
    SparsePolynomial,
    act,
    parse_polynomial,
)
from bnspecht.tableaux import specht_generators


def test_monomial_profile_examples():
    p = monomial_profile(Monomial((2, 1, 1, 0)))
    assert p.i1 == (1,) and p.k == (1,)
    assert p.i2 == (2, 3) and p.r == (0, 0)
    assert (p.ell, p.s, p.d1, p.d2) == (1, 2, 1, 0)
    constant = monomial_profile(Monomial((0, 0)))
    assert constant.i1 == () and constant.i2 == ()
    cube = monomial_profile(Monomial((3,)))
    assert cube.i2 == (1,) and cube.r == (1,)


def test_gamma_examples():
    assert gamma(Monomial((2, 1, 1, 0)), 4) == bp((2,), (1, 1))
    assert gamma_star(Monomial((2, 1, 1, 0)), 4) == bp((1, 1), (2,))
    assert gamma(Monomial((0, 0, 0)), 3) == bp((1, 1, 1), ())
    assert gamma_star(Monomial((0, 0, 0)), 3) == bp((3,), ())
    assert gamma(Monomial((1, 1, 0, 0)), 4) == bp((1, 1), (1, 1))
    assert gamma_star(Monomial((1, 1, 0, 0)), 4) == bp((2,), (2,))
    assert gamma(Monomial((3, 0)), 2) == bp((), (2,))
    assert gamma_star(Monomial((3, 0)), 2) == bp((), (1, 1))


def test_profiles_reject_a_negative_exponent():
    """No monomial or polynomial that a profile reads can hold a negative exponent."""
    with pytest.raises(ValueError, match=r"negative exponent in x1\^-1"):
        Monomial((-1,))
    with pytest.raises(ValueError, match=r"negative exponent in x1\^-1"):
        SparsePolynomial(1, {(-1,): 1})


def test_gamma_rejects_overweight_monomials():
    with pytest.raises(NotApplicableError):
        gamma(Monomial((2, 1, 1)), 3)
    with pytest.raises(NotApplicableError):
        gamma(Monomial((3,)), 1)


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(*[st.integers(0, 3)] * n)))
def test_gamma_has_total_size_n_and_conjugate_pair(exps):
    n = len(exps)
    m = Monomial(exps)
    p = monomial_profile(m)
    if p.ell + p.s + p.d1 + p.d2 > n:
        with pytest.raises(NotApplicableError):
            gamma(m, n)
        return
    g, gs = gamma(m, n), gamma_star(m, n)
    assert g.size == n and gs.size == n
    assert gs.left == conjugate(g.left) and gs.right == conjugate(g.right)
    # conjugation is an involution, so the starred label recovers the plain one
    assert bp(conjugate(gs.left).parts, conjugate(gs.right).parts) == g


def test_detect_specht_subideal_examples():
    found = detect_specht_subideal(parse_polynomial("x1^2*x2*x3 + x1", 4), 4)
    assert found == [(Monomial((2, 1, 1, 0)), bp((1, 1), (2,)))]
    found = detect_specht_subideal(parse_polynomial("1", 3), 3)
    assert found == [(Monomial((0, 0, 0)), bp((3,), ()))]
    found = detect_specht_subideal(parse_polynomial("x1*x2*x3", 3), 3)
    assert found == [(Monomial((1, 1, 1)), bp((), (3,)))]
    with pytest.raises(ValueError):
        detect_specht_subideal(parse_polynomial("0", 2), 2)


def test_maximal_detected_and_no_conclusion():
    assert maximal_detected(parse_polynomial("x1^2*x2*x3 + x1", 4), 4) == [
        bp((1, 1), (2,))
    ]
    with pytest.raises(NoConclusionError):
        maximal_detected(parse_polynomial("x1^2*x2*x3", 3), 3)


def test_excluded_orbit_classes_match_bidominance():
    P = parse_polynomial("x1^2*x2*x3 + x1", 4)
    top = bp((1, 1), (2,))
    expected = [s for s in enumerate_bipartitions(4) if bidominates(top, s)]
    assert excluded_orbit_classes(P, 4) == expected


@pytest.mark.parametrize(
    "analysis", [detect_specht_subideal, maximal_detected, excluded_orbit_classes, detection_report]
)
@pytest.mark.parametrize("text, ring, n", [("x5", 5, 3), ("x4^2", 4, 2), ("x1", 2, 4)])
def test_detection_rejects_a_polynomial_from_another_ring(analysis, text, ring, n):
    message = f"polynomial in {ring} variables, analysis at n={n}"
    with pytest.raises(AmbientMismatchError, match=message):
        analysis(parse_polynomial(text, ring), n)


def test_rank_bound_examples():
    assert rank_bound(bp((3,), ()), 3) == 0
    assert rank_bound(bp((), (1, 1)), 2) == 7
    assert rank_bound(bp((1,), (1,)), 2) == 1
    with pytest.raises(ValueError):
        rank_bound(bp((1,), ()), 2)


def test_rank_bound_of_minimum_counts_everything_else():
    from math import factorial

    for n in (2, 3, 4):
        bottom = bp((), (1,) * n)
        assert rank_bound(bottom, n) == 2**n * factorial(n) - 1


def test_detection_report_schema():
    doc = detection_report(parse_polynomial("x1^2*x2*x3 + x1", 4), 4)
    assert doc["n"] == 4
    assert doc["maximal_gamma_star"] == ["((1,1),(2))"]
    assert doc["rank_bound"] == rank_bound(bp((1, 1), (2,)), 4)
    assert any(m["applicable"] for m in doc["monomials"])
    assert detection_report(parse_polynomial("x1^2*x2*x3", 3), 3) == {
        "polynomial": "x1^2*x2*x3",
        "n": 3,
        "monomials": [{"monomial": "x1^2*x2*x3", "applicable": False}],
        "maximal_gamma_star": [],
        "excluded_classes": [],
        "rank_bound": None,
    }


@pytest.mark.parametrize(
    "text,n",
    # the last polynomial's label ((3),(1,1)) is not maximal
    [("x2*x3*(x1^2 - 1)", 4), ("x1^2*x2^2*x3*x4 - x5*x6", 8), ("x1^2*x2 + x1*x2*x3 + x3^3", 5)],
)
def test_detection_report_runs_the_detection_once(monkeypatch, text, n):
    P = parse_polynomial(text, n)
    maxima = maximal_detected(P, n)
    calls = []
    original = invariants.detect_specht_subideal
    monkeypatch.setattr(
        invariants, "detect_specht_subideal", lambda *args: calls.append(args) or original(*args)
    )
    doc = detection_report(P, n)
    assert len(calls) == 1
    assert doc["maximal_gamma_star"] == [str(g) for g in maxima]
    assert doc["excluded_classes"] == [str(c) for c in excluded_orbit_classes(P, n)]
    assert doc["rank_bound"] == min(rank_bound(g, n) for g in maxima)


def test_symmetrization_identity_examples():
    P = parse_polynomial("x1^2*x2*x3", 4)
    assert verify_symmetrization(P, Monomial((2, 1, 1, 0)), [(4,), (), ()])
    quartic = parse_polynomial("x1^4", 5)
    assert verify_symmetrization(quartic, Monomial((4, 0, 0, 0, 0)), [(2, 3)])
    linear = parse_polynomial("x1", 2)
    assert verify_symmetrization(linear, Monomial((1, 0)), [()])


def test_symmetrization_keeps_only_the_sign_averaged_part():
    # each P carries a term that the sign averaging must remove
    m = Monomial((2, 1, 1, 0))
    for text in ("x1^2*x2*x3 + x1*x2*x3", "x1^2*x2*x3 + x1^2*x3"):
        assert verify_symmetrization(parse_polynomial(text, 4), m, [(4,), (), ()]), text
    mixed = parse_polynomial("x1^4 + x1^3", 5)
    assert verify_symmetrization(mixed, Monomial((4, 0, 0, 0, 0)), [(2, 3)])


def test_symmetrization_rejects_a_monomial_from_another_ring():
    P = parse_polynomial("x1^2", 3)
    for m in (Monomial((0, 0, 0, 2)), Monomial((2,))):
        with pytest.raises(AmbientMismatchError, match=f"monomial in {m.n} variables"):
            verify_symmetrization(P, m, [(2,)])
    assert verify_symmetrization(P, Monomial((2, 0, 0)), [(2,)])


def test_symmetrization_validation():
    P = parse_polynomial("x1^2*x2*x3", 4)
    m = Monomial((2, 1, 1, 0))
    with pytest.raises(ValueError):
        verify_symmetrization(P, m, [(4,)])  # wrong number of sets
    with pytest.raises(ValueError):
        verify_symmetrization(P, m, [(2,), (), ()])  # hits a top-component variable
    with pytest.raises(ValueError):
        verify_symmetrization(P, m, [(4, 4), (), ()])  # repeated index
    with pytest.raises(ValueError):
        verify_symmetrization(P, m, [(5,), (), ()])  # outside the ambient ring
    with pytest.raises(ValueError):
        verify_symmetrization(P, m, [(), (4,), ()])  # sizes mismatch the profile


class Index:
    """An integer only through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_symmetrization_reads_its_index_sets_as_integers():
    P = parse_polynomial("x1^2*x2*x3", 4)
    m = Monomial((2, 1, 1, 0))
    with pytest.raises(ValueError, match="non-integer variable index 4.0"):
        verify_symmetrization(P, m, [(4.0,), (), ()])
    mixed = parse_polynomial("x1^4 + x1^3", 5)
    assert verify_symmetrization(mixed, Monomial((4, 0, 0, 0, 0)), [(Index(3), Index(2))])


def test_symmetrization_resource_guard():
    quartic = parse_polynomial("x1^4", 5)
    with pytest.raises(ResourceLimitExceeded):
        verify_symmetrization(
            quartic, Monomial((4, 0, 0, 0, 0)), [(2, 3)], ResourceLimits(max_cosets=2)
        )


def test_bn_orbit_is_closed_and_deterministic():
    P = parse_polynomial("x1", 2)
    orbit = bn_orbit(P)
    assert len(orbit) == 4
    assert orbit == bn_orbit(parse_polynomial("x2", 2))
    for perm in itertools.permutations((1, 2)):
        for signs in itertools.product((1, -1), repeat=2):
            g = SignedPermutation(perm, signs)
            assert all(act(g, q) in set(orbit) for q in orbit)
    assert len(bn_orbit(parse_polynomial("x1*x2", 2))) == 2


def test_bn_orbit_size_is_capped():
    P = parse_polynomial("x1 + 2*x2^2 + 3*x3^3 + 4*x4^4 + 5*x5^5", 5)
    with pytest.raises(ResourceLimitExceeded, match="enumeration size 101 exceeds cap 100"):
        bn_orbit(P, ResourceLimits(max_enumeration=100))
    assert len(bn_orbit(P)) == 2**3 * 120  # the sign flips of x2 and x4 fix P


def test_detected_subideal_is_contained_in_the_invariant_ideal():
    # the ideal generated by the orbit of P must contain the Specht ideal of
    # every detected label
    cases = [
        (parse_polynomial("x2*(x1^2 - 1)", 3), 3),
        (parse_polynomial("x1*x2", 2), 2),
        (parse_polynomial("x1", 2), 2),
    ]
    for P, n in cases:
        gb = buchberger(bn_orbit(P), "degrevlex")
        for shape in maximal_detected(P, n):
            assert ideal_contains(gb, specht_generators(shape, n)), (str(P), str(shape))
