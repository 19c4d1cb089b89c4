"""Tests for bitableaux, the glueing bijection and Specht polynomials."""

import hashlib
import itertools
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnspecht.errors import ResourceLimitExceeded, ResourceLimits
from bnspecht.partitions import (
    Partition,
    _conjugate_parts,
    bp,
    enumerate_bipartitions,
    enumerate_partitions,
    glue,
)
from bnspecht.polynomials import SparsePolynomial, parse_polynomial
from bnspecht.tableaux import (
    Bitableau,
    Tableau,
    _column_heights,
    _reference_columns,
    _specht_degree,
    all_bitableaux,
    bitableau_from_json,
    enumerate_standard_bitableaux,
    enumerate_standard_tableaux,
    glue_bitableau,
    num_standard_bitableaux,
    num_standard_tableaux,
    reference_bitableau,
    specht_generators,
    specht_polynomial_bn,
    specht_polynomial_sn,
    split_bitableau,
)

shapes = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from(enumerate_bipartitions(n)).map(lambda s: (s, n))
)


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(((1, 2), (3, 4, 5)))
    with pytest.raises(ValueError):
        Tableau(((1, 1),))
    t = Tableau(((1, 2, 3), (4, 5)))
    assert t.shape == Partition((3, 2))
    assert t.columns() == [(1, 4), (2, 5), (3,)]
    assert Tableau.from_columns(t.columns()) == t


def test_only_trailing_empty_rows_are_dropped():
    assert Tableau(((1, 2), (3,), (), ())).rows == ((1, 2), (3,))
    assert Tableau(((),)).rows == ()
    for rows in (((1,), (), (2,)), ((), (1, 2))):
        with pytest.raises(ValueError, match="row lengths"):
            Tableau(rows)
    with pytest.raises(ValueError):
        Partition((1, 0, 1))


def test_columns_of_increasing_height_are_rejected():
    with pytest.raises(ValueError, match="column heights not non-increasing: \\[1, 2\\]"):
        Tableau.from_columns([(1,), (2, 3)])
    assert Tableau.from_columns([(1, 2), (3,), ()]).columns() == [(1, 2), (3,)]
    assert Tableau.from_columns([]) == Tableau(())


def test_standard_tableaux_round_trip_through_their_columns():
    from bnspecht.partitions import enumerate_partitions

    for n in range(7):
        for p in enumerate_partitions(n):
            for t in enumerate_standard_tableaux(p):
                assert Tableau.from_columns(t.columns()) == t


def test_bitableau_entries_partition_range():
    t = Tableau(((1, 3),))
    s = Tableau(((2,),))
    assert Bitableau(t, s, 3).shape == bp((2,), (1,))
    with pytest.raises(ValueError):
        Bitableau(t, Tableau(((3,),)), 3)
    with pytest.raises(ValueError):
        Bitableau(t, s, 4)


def test_glueing_matches_the_displayed_example():
    t = Tableau(((1, 2, 10, 9), (4, 8, 7), (6,)))
    s = Tableau(((3,), (5,)))
    glued = glue_bitableau(Bitableau(t, s, 10))
    assert glued.rows == ((1, 2, 10, 3, 9), (4, 8, 7, 5), (6,))


@given(shapes)
def test_glue_then_split_round_trips(shape_n):
    shape, n = shape_n
    bt = reference_bitableau(shape, n)
    glued = glue_bitableau(bt)
    assert glued.shape == glue(shape.left, shape.right)
    assert split_bitableau(glued, shape, n) == bt


def test_split_rejects_wrong_shape():
    bt = reference_bitableau(bp((1,), (1,)), 2)
    with pytest.raises(ValueError):
        split_bitableau(glue_bitableau(bt), bp((1, 1), ()), 2)


def test_sn_specht_polynomial():
    t = Tableau(((1,), (2,)))
    assert specht_polynomial_sn(t, 2) == parse_polynomial("x1 - x2", 2)
    row = Tableau(((1, 2, 3),))
    assert specht_polynomial_sn(row, 3) == SparsePolynomial.constant(3, 1)


def test_bn_specht_polynomial_examples():
    # single column pair {1,2} in the first tableau
    bt = Bitableau(Tableau(((1,), (2,))), Tableau(()), 2)
    assert specht_polynomial_bn(bt) == parse_polynomial("x1^2 - x2^2", 2)
    # one box in each component: the squared difference times the odd variable
    bt = Bitableau(Tableau(((1,),)), Tableau(((2,),)), 2)
    assert specht_polynomial_bn(bt) == parse_polynomial("x2", 2)
    # all boxes in the second component
    bt = Bitableau(Tableau(()), Tableau(((1,), (2,))), 2)
    assert specht_polynomial_bn(bt) == parse_polynomial("(x1^2-x2^2)*x1*x2", 2)


def test_glueing_identity_for_all_small_bitableaux():
    for n in range(1, 5):
        for shape in enumerate_bipartitions(n):
            for bt in all_bitableaux(shape, n):
                lhs = specht_polynomial_bn(bt)
                rhs = specht_polynomial_sn(glue_bitableau(bt), n).substitute_squares()
                for k in sorted(bt.second.entries):
                    rhs = rhs * SparsePolynomial.variable(n, k)
                assert lhs == rhs, str(bt)


def test_reference_bitableau_fills_columns_in_order():
    bt = reference_bitableau(bp((2, 1), (1, 1)), 5)
    assert bt.first.rows == ((1, 3), (2,))
    assert bt.second.rows == ((4,), (5,))
    with pytest.raises(ValueError):
        reference_bitableau(bp((2,), ()), 3)


# Reference routes. The column layout was once read from validated objects:
# `partitions.conjugate` counted the boxes of each column in a double loop and
# built a `Partition`, and `reference_bitableau` filled a `Tableau` per
# component from a shared counter. The tests keep both as independent checks.


def reference_conjugate(parts):
    """The conjugate's parts, one box at a time: column j counts the rows longer than j."""
    cols = [0] * (parts[0] if parts else 0)
    for part in parts:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def reference_fill_columns(parts, counter):
    """The tableau whose columns, of the conjugate's heights, take counter's next values."""
    cols = [[next(counter) for _ in range(h)] for h in reference_conjugate(parts)]
    return Tableau.from_columns(cols)


def test_conjugate_parts_match_the_box_count_route():
    for n in range(16):
        for p in enumerate_partitions(n):
            assert _conjugate_parts(p.parts) == reference_conjugate(p.parts), str(p)


def test_column_layout_matches_the_reference_routes():
    """Heights, degree and reference columns of every shape with n <= 10, against the old routes.

    The degree is that of a column Vandermonde in squares, h(h - 1), plus h for
    a column of the second tableau.
    """
    for n in range(11):
        for shape in enumerate_bipartitions(n):
            left = reference_conjugate(shape.left.parts)
            right = reference_conjugate(shape.right.parts)
            heights, split = _column_heights(shape)
            assert (heights, split) == (left + right, len(left)), str(shape)
            degree = sum(h * (h - 1) for h in left) + sum(h * h for h in right)
            assert _specht_degree(heights, split) == degree, str(shape)
            counter = itertools.count(1)
            first = reference_fill_columns(shape.left.parts, counter)
            second = reference_fill_columns(shape.right.parts, counter)
            columns = first.columns() + second.columns()
            assert _reference_columns(heights) == columns, str(shape)
            bt = reference_bitableau(shape, n)
            assert bt == Bitableau(first, second, n), str(shape)
            assert bt.first.columns() + bt.second.columns() == columns, str(shape)


def test_specht_degree_is_the_reference_polynomials_degree():
    for n in range(8):
        for shape in enumerate_bipartitions(n):
            degree = specht_polynomial_bn(reference_bitableau(shape, n)).degree
            assert _specht_degree(*_column_heights(shape)) == degree, str(shape)


def test_all_bitableaux_count():
    assert sum(1 for _ in all_bitableaux(bp((1,), (1,)), 2)) == 2
    assert sum(1 for _ in all_bitableaux(bp((2, 1), (1,)), 4)) == 24


def test_specht_generators_small_shapes():
    assert specht_generators(bp((2,), ()), 2) == [SparsePolynomial.constant(2, 1)]
    assert set(specht_generators(bp((1,), (1,)), 2)) == {
        parse_polynomial("x1", 2),
        parse_polynomial("x2", 2),
    }
    assert specht_generators(bp((1, 1), ()), 2) == [parse_polynomial("x1^2 - x2^2", 2)]


def test_specht_generators_cover_the_full_orbit_up_to_sign():
    for shape in enumerate_bipartitions(3):
        gens = set(specht_generators(shape, 3))
        orbit = {
            specht_polynomial_bn(btab).sign_normalized()
            for btab in all_bitableaux(shape, 3)
        }
        assert gens == orbit, str(shape)


def test_specht_constructions_keep_their_recorded_text():
    """Every Specht generator, then the reference polynomial, of every shape with n <= 7."""
    lines = []
    for n in range(8):
        for shape in enumerate_bipartitions(n):
            lines.extend(map(str, specht_generators(shape, n)))
            lines.append(str(specht_polynomial_bn(reference_bitableau(shape, n))))
    assert len(lines) == 17472
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "243e97d9180a9717"


def test_the_generator_count_is_capped_before_enumerating():
    """The closed-form count n! / (prod h! * prod r!) is the cap's figure, exactly."""
    for n in range(7):
        for shape in enumerate_bipartitions(n):
            count = len(specht_generators(shape, n))
            assert len(specht_generators(shape, n, ResourceLimits(max_enumeration=count))) == count
            with pytest.raises(ResourceLimitExceeded, match=f"enumeration size {count} exceeds"):
                specht_generators(shape, n, ResourceLimits(max_enumeration=count - 1))
    # 16! / (2!^8 * 8!) generators: refused at once under the default cap
    with pytest.raises(ResourceLimitExceeded, match="enumeration size 2027025 exceeds cap 100000"):
        specht_generators(bp((8, 8), ()), 16)


def test_hook_length_counts():
    assert num_standard_tableaux(Partition((3, 2))) == 5
    assert num_standard_tableaux(Partition((2, 2))) == 2
    assert num_standard_tableaux(Partition((1, 1, 1))) == 1
    assert num_standard_tableaux(Partition(())) == 1


@given(st.integers(1, 5))
def test_hook_lengths_match_enumeration(n):
    from bnspecht.partitions import enumerate_partitions

    for p in enumerate_partitions(n):
        assert len(enumerate_standard_tableaux(p)) == num_standard_tableaux(p)


def test_standard_tableaux_are_increasing():
    for t in enumerate_standard_tableaux(Partition((2, 2))):
        for row in t.rows:
            assert all(a < b for a, b in zip(row, row[1:]))
        for col in t.columns():
            assert all(a < b for a, b in zip(col, col[1:]))


def test_standard_tableaux_keep_their_recorded_order():
    """Every standard tableau of every partition of n <= 7, in enumeration order: 352 lines."""
    from bnspecht.partitions import enumerate_partitions

    lines = [
        str(t) for n in range(8) for p in enumerate_partitions(n) for t in enumerate_standard_tableaux(p)
    ]
    assert len(lines) == 352
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "641bb2c165ddc5eb"


def test_standard_bitableau_counts():
    shape = bp((2,), (1, 1))
    assert num_standard_bitableaux(shape) == comb(4, 2) * 1 * 1
    assert len(enumerate_standard_bitableaux(shape)) == 6


def test_squared_counts_sum_to_group_order():
    for n in range(1, 6):
        total = sum(
            len(enumerate_standard_bitableaux(s)) ** 2 for s in enumerate_bipartitions(n)
        )
        assert total == 2**n * factorial(n)


def test_bitableau_json_round_trip():
    bt = reference_bitableau(bp((2, 1), (1,)), 4)
    assert bitableau_from_json(bt.to_json()) == bt
    import json

    assert bitableau_from_json(json.dumps(bt.to_json())) == bt
