"""Tests for orbit types, orbit sets and the variety decomposition."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspecht.errors import EmptyOrbitError, SizeMismatchError
from bnspecht.partitions import Partition, bidominates, bp, enumerate_bipartitions
from bnspecht.polynomials import SignedPermutation, act_point, parse_point, parse_polynomial
from bnspecht.tableaux import specht_generators
from bnspecht.varieties import (
    _nonempty_classes,
    bn_orbit_type,
    decompose_variety,
    decomposition_report,
    lambda_t,
    orbit_representative,
    orbit_set_nonempty,
    phi,
    sn_orbit_type,
    as_point,
    variety_contains,
    witness_z1,
    witness_z2,
)


def test_sn_orbit_type():
    assert sn_orbit_type((1, 1, 1, 2, 2, 3, 3, 4)) == Partition((3, 2, 2, 1))
    assert sn_orbit_type((5, 5, 5)) == Partition((3,))
    assert sn_orbit_type((1, 2, 3)) == Partition((1, 1, 1))
    assert sn_orbit_type(()) == Partition(())


def test_bn_orbit_type_table_rows():
    a, b, c = 2, 3, 5
    rows = [
        ((0, 0, 0), bp((3,), ())),
        ((a, 0, 0), bp((2, 1), ())),
        ((a, b, 0), bp((1, 1, 1), ())),
        ((a, a, 0), bp((1, 1), (1,))),
        ((a, a, a), bp((), (3,))),
        ((a, a, b), bp((), (2, 1))),
        ((a, b, c), bp((), (1, 1, 1))),
    ]
    for values, expected in rows:
        for signs in itertools.product((1, -1), repeat=3):
            point = tuple(s * v for s, v in zip(signs, values))
            assert bn_orbit_type(point) == expected, point


def test_bn_orbit_type_is_constant_on_signed_permutation_orbits():
    z = (Fraction(2), Fraction(2), Fraction(0), Fraction(-3))
    base = bn_orbit_type(z)
    for perm in itertools.permutations(range(1, 5)):
        for signs in itertools.product((1, -1), repeat=4):
            g = SignedPermutation(perm, signs)
            assert bn_orbit_type(act_point(g, z)) == base


def test_orbit_type_and_evaluated_membership_ignore_a_random_signed_permutation():
    rng = random.Random(2031)
    for n in range(1, 6):
        shapes = enumerate_bipartitions(n)
        for _ in range(10):
            z = tuple(rng.randint(-2, 2) for _ in range(n))
            perm = rng.sample(range(1, n + 1), n)
            g = SignedPermutation(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(n)))
            moved = act_point(g, z)
            assert bn_orbit_type(moved) == bn_orbit_type(z), (z, g)
            for shape in shapes:
                expected = variety_contains(shape, z, "evaluate")
                assert variety_contains(shape, moved, "evaluate") == expected, (shape, z, g)


def test_orbit_set_nonempty_n3():
    empty = {bp((2,), (1,)), bp((1,), (2,)), bp((1,), (1, 1))}
    for shape in enumerate_bipartitions(3):
        assert orbit_set_nonempty(shape) == (shape not in empty), str(shape)


def test_orbit_representative_round_trips():
    for n in range(1, 6):
        for shape in enumerate_bipartitions(n):
            if orbit_set_nonempty(shape):
                z = orbit_representative(shape)
                assert len(z) == n
                assert bn_orbit_type(z) == shape, str(shape)
            else:
                with pytest.raises(EmptyOrbitError):
                    orbit_representative(shape)


def test_orbit_representative_examples():
    assert orbit_representative(bp((1, 1), (1,))) == (1, 1, 0)
    assert orbit_representative(bp((3,), ())) == (0, 0, 0)
    assert orbit_representative(bp((), (1, 1, 1))) == (1, 2, 3)


def test_orbit_types_partition_small_grids():
    # every point lands in exactly one nonempty class
    for n in (2, 3):
        labels = [s for s in enumerate_bipartitions(n) if orbit_set_nonempty(s)]
        for point in itertools.product((-2, -1, 0, 1, 2), repeat=n):
            omega = bn_orbit_type(point)
            assert omega in labels, point


def test_variety_contains_strategies_and_errors():
    shape = bp((1, 1), (2,))
    z = (0, 0, 1, 2)
    assert variety_contains(shape, z, "evaluate")
    assert variety_contains(shape, z, "orbit")
    assert bn_orbit_type(z) == bp((2, 1, 1), ())
    with pytest.raises(SizeMismatchError):
        variety_contains(shape, (1, 2))
    with pytest.raises(ValueError):
        variety_contains(shape, z, "magic")


def test_variety_of_maximum_is_empty():
    for z in [(0, 0), (1, 2), (3, 3)]:
        assert not variety_contains(bp((2,), ()), z, "evaluate")
    assert decompose_variety(bp((2,), ())) == []


def test_point_is_never_in_the_variety_of_its_own_type():
    for n in (2, 3):
        for shape in enumerate_bipartitions(n):
            if orbit_set_nonempty(shape):
                z = orbit_representative(shape)
                assert not variety_contains(shape, z, "evaluate"), str(shape)


def test_strategies_agree_on_representatives():
    for n in (2, 3, 4, 5):
        reps = [
            orbit_representative(s)
            for s in enumerate_bipartitions(n)
            if orbit_set_nonempty(s)
        ]
        for shape in enumerate_bipartitions(n):
            for z in reps:
                assert variety_contains(shape, z, "evaluate") == variety_contains(
                    shape, z, "orbit"
                ), (str(shape), z)


def _exact(value) -> bool:
    """The coefficient convention: an int when integral, else a Fraction with denominator > 1."""
    return type(value) is int or type(value) is Fraction and value.denominator > 1


def test_points_and_values_follow_the_coefficient_convention():
    point = parse_point("4/2, -1/2, 3, 0/5")
    assert point == (2, Fraction(-1, 2), 3, 0) and all(map(_exact, point))
    moved = act_point(SignedPermutation((2, 1, 3, 4), (-1, 1, 1, 1)), (Fraction(6, 3), 0.5, 1, 0))
    assert moved == (-Fraction(1, 2), 2, 1, 0) and all(map(_exact, moved))
    coords = as_point((Fraction(6, 3), 0.5, 7, True))
    assert coords == (2, Fraction(1, 2), 7, 1) and all(map(_exact, coords))
    p = parse_polynomial("2*x1*x2 + x3 - 1/3*x4", 4)
    values = [p.evaluate(z) for z in [point, (1, 1, 1, 3), (Fraction(1, 2), 1, 0, 0), (1, 1, 1, 1)]]
    assert values == [1, 2, 1, Fraction(8, 3)] and all(map(_exact, values))
    for shape in enumerate_bipartitions(4):
        points = [witness_z1(shape), witness_z2(shape)]
        if orbit_set_nonempty(shape):
            points.append(orbit_representative(shape))
        assert all(type(c) is int for z in points for c in z), str(shape)


def test_decompose_variety_example():
    got = {c.bipartition for c in decompose_variety(bp((1, 1), (2,)))}
    assert got == {
        bp((2, 2), ()),
        bp((2, 1, 1), ()),
        bp((), (4,)),
        bp((3, 1), ()),
        bp((4,), ()),
    }


def test_decompose_variety_of_minimum():
    n = 3
    bottom = bp((), (1, 1, 1))
    got = {c.bipartition for c in decompose_variety(bottom)}
    expected = {
        s for s in enumerate_bipartitions(n) if orbit_set_nonempty(s) and s != bottom
    }
    assert got == expected


def test_decomposition_is_antimonotone():
    shapes = enumerate_bipartitions(3)
    classes = {s: {c.bipartition for c in decompose_variety(s)} for s in shapes}
    for a in shapes:
        for b in shapes:
            if bidominates(a, b):
                assert classes[a] <= classes[b]


def test_decomposition_report_schema():
    doc = decomposition_report(bp((1,), (1,)))
    assert doc["bipartition"] == "((1),(1))"
    assert len(doc["classes"]) == len(doc["representatives"])
    assert all(c["nonempty"] for c in doc["classes"])


def test_witness_points_lie_outside_their_variety():
    for n in range(1, 6):
        for shape in enumerate_bipartitions(n):
            for z in (witness_z1(shape), witness_z2(shape)):
                assert len(z) == n
                assert not variety_contains(shape, z, "orbit"), (str(shape), z)


def test_product_form_vanishing_matches_expanded_evaluation():
    """`variety_contains(..., "evaluate")` reads the product form; expand every generator instead."""
    pairs = 0
    for n in range(1, 7):
        points = [orbit_representative(c) for c in _nonempty_classes(n)]
        for shape in enumerate_bipartitions(n):
            gens = specht_generators(shape, n)
            for z in points:
                expanded = all(g.evaluate(z) == 0 for g in gens)
                assert variety_contains(shape, z, "evaluate") == expanded, (str(shape), z)
                pairs += 1
    assert pairs == 2 * 2 + 5 * 4 + 10 * 7 + 20 * 12 + 36 * 19 + 65 * 30


def test_witness_point_examples():
    assert witness_z1(bp((1, 1), (2,))) == (1, 1, 1, 2)
    assert witness_z2(bp((2,), ())) == (0, 0)
    assert witness_z2(bp((1,), (1,))) == (0, 1)


def test_witnesses_fail_some_generator():
    from bnspecht.tableaux import specht_generators

    for shape in enumerate_bipartitions(3):
        gens = specht_generators(shape, 3)
        for z in (witness_z1(shape), witness_z2(shape)):
            assert any(g.evaluate(z) != 0 for g in gens), str(shape)


def test_phi_examples():
    residual = Partition((2, 1))
    assert phi(0, residual) == bp((), (2, 1))
    assert phi(1, Partition((2,))) == bp((1, 1), (1,))
    with pytest.raises(ValueError):
        phi(-1, residual)


def test_phi_lands_on_nonempty_classes_and_matches_types():
    # points with t zeros and nonzero squares of type residual have class phi(t, residual)
    for n in (2, 3, 4):
        for t in range(n + 1):
            from bnspecht.partitions import enumerate_partitions

            for residual in enumerate_partitions(n - t):
                shape = phi(t, residual)
                assert orbit_set_nonempty(shape), (t, str(residual))
                coords = [Fraction(0)] * t
                for i, mult in enumerate(residual.parts, start=1):
                    coords.extend([Fraction(i)] * mult)
                assert bn_orbit_type(coords) == shape


def test_lambda_t_examples():
    assert lambda_t(Partition((3, 2, 1)), 2) == Partition((3, 1))
    assert lambda_t(Partition((3,)), 3) == Partition(())
    assert lambda_t(Partition((2, 2)), 0) == Partition((2, 2))
    with pytest.raises(ValueError):
        lambda_t(Partition((1, 1)), 2)


def test_variety_complement_reformulation_small():
    # complement of the variety = union of classes phi(t, L) over 0 <= t <= left_1
    # and residual types L dominated by the merged profile (the t = 0 stratum of
    # zero-free points is required: the maximum shape has an empty variety, so
    # its complement must also cover points without zero coordinates)
    from bnspecht.partitions import dominates, enumerate_partitions, glue

    for n in (2, 3, 4):
        for shape in enumerate_bipartitions(n):
            lam, mu = shape.left, shape.right
            inside = {c.bipartition for c in decompose_variety(shape)}
            all_nonempty = {
                s for s in enumerate_bipartitions(n) if orbit_set_nonempty(s)
            }
            outside = all_nonempty - inside
            union = set()
            for t in range(0, lam.at(1) + 1):
                merged = glue(lambda_t(lam, t), mu)
                for residual in enumerate_partitions(n - t):
                    if dominates(merged, residual):
                        union.add(phi(t, residual))
            assert union == outside, str(shape)
