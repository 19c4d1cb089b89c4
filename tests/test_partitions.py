"""Tests for partitions, bipartitions, the orders and the Hasse diagram."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspecht.cli import build_parser
from bnspecht.errors import ParseError, ResourceLimitExceeded, SizeMismatchError
from bnspecht.groebner import (
    inclusion_by_certificates,
    radical_report,
    specht_ideal_contains,
    universal_gb_check,
)
from bnspecht.invariants import rank_bound
from bnspecht.partitions import (
    Bipartition,
    Partition,
    _partition_counts,
    bidominates,
    bipartition_coverings_below,
    bp,
    concatenate,
    conjugate,
    cut,
    dominates,
    enumerate_bipartitions,
    enumerate_partitions,
    glue,
    hasse_diagram,
    hecke_leq,
    induced_leq,
    is_cm_shape,
    parse_bipartition,
    parse_partition,
    partition_coverings_below,
)
from bnspecht.tableaux import reference_bitableau, specht_generators

partitions = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def test_partition_canonical_form():
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition(()).parts == ()
    assert Partition((0, 0)).parts == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((-1,))
    with pytest.raises(ValueError, match="not non-increasing"):
        Partition((0, 2))
    with pytest.raises(ValueError, match="not non-increasing"):
        Partition((2, 0, 1))


@pytest.mark.parametrize("parts", [(2.5, 1), ("2",), (2.0,), (1, "0")])
def test_partition_rejects_non_integral_parts(parts):
    with pytest.raises(ValueError, match="non-integer part"):
        Partition(parts)


@pytest.mark.parametrize(
    "parts, message",
    [
        ((2, 1.5), "non-integer part in (2, 1.5)"),
        ((-1, 1.5), "non-integer part in (-1, 1.5)"),  # before the negative part
        ((-1, 2), "negative part in (-1, 2)"),  # before the increase
        ((1, 0, -1), "negative part in (1, 0, -1)"),
        ((1, 2), "parts not non-increasing: (1, 2)"),
        ((2, 0, 1), "parts not non-increasing: (2, 0, 1)"),
    ],
)
def test_partition_messages_and_their_precedence(parts, message):
    with pytest.raises(ValueError) as caught:
        Partition(parts)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "parts, canonical", [((), ()), ((0,), ()), ((0, 0), ()), ((3, 3, 0), (3, 3)), ((True, 0), (1,))]
)
def test_partition_strips_trailing_zeros(parts, canonical):
    assert Partition(parts).parts == canonical


def test_partition_indexing_pads_with_zeros():
    p = Partition((3, 1))
    assert [p.at(i) for i in range(1, 5)] == [3, 1, 0, 0]
    with pytest.raises(IndexError):
        p.at(0)


def test_parse_partition_and_bipartition():
    assert parse_partition("(3,2,1)")[0] == Partition((3, 2, 1))
    assert parse_bipartition("((1,1),(2))") == bp((1, 1), (2,))
    assert parse_bipartition("( ( ) , ( 1 ) )") == bp((), (1,))
    with pytest.raises(ParseError):
        parse_bipartition("((1,1)(2))")
    with pytest.raises(ParseError):
        parse_bipartition("((1,1),(2)) junk")


def test_parse_error_carries_position():
    try:
        parse_bipartition("((1,x),(2))")
    except ParseError as exc:
        assert exc.position == 4
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize("text", ["((\u00b2),())", "((\u0661),())", "((1,\uff12),())"])
def test_parts_take_ascii_digits_only(text):
    position = text.index(next(ch for ch in text if ord(ch) > 127))
    with pytest.raises(ParseError) as err:
        parse_bipartition(text)
    assert str(err.value) == f"expected a part or ')' (at position {position})"


def test_dominance_basics():
    assert dominates(Partition((3,)), Partition((1, 1, 1)))
    assert not dominates(Partition((2, 2)), Partition((3, 1)))
    assert dominates(Partition((2, 2)), Partition((2, 2)))
    with pytest.raises(SizeMismatchError):
        dominates(Partition((2,)), Partition((3,)))


def test_conjugate_examples():
    assert conjugate(Partition((5,))) == Partition((1,) * 5)
    # transpose the diagram of (4,3,2) by hand: columns have 3,3,2,1 boxes
    assert conjugate(Partition((4, 3, 2))) == Partition((3, 3, 2, 1))
    assert conjugate(Partition(())) == Partition(())


@given(partitions)
def test_conjugate_is_involution(p):
    assert conjugate(conjugate(p)) == p


@given(partitions, partitions)
def test_glue_conjugate_is_concatenate(p, q):
    assert conjugate(glue(p, q)) == concatenate(conjugate(p), conjugate(q))


def test_glue_and_concatenate_examples():
    assert glue(Partition((3, 1)), Partition((2, 2))) == Partition((5, 3))
    assert concatenate(Partition((3, 1)), Partition((2, 2))) == Partition((3, 2, 2, 1))


def test_cut_examples():
    assert cut(Partition((3, 2, 2, 1)), 2) == bp((2, 2, 2, 1), (1,))
    assert cut(Partition((3, 1)), 0) == bp((), (3, 1))
    assert cut(Partition((2, 2)), 2) == bp((2, 2), ())


@given(partitions, st.integers(0, 6))
def test_cut_preserves_size(p, t):
    assert cut(p, t).size == p.size


def test_partition_coverings_against_oracle():
    # oracle: q is covered by p iff q < p in dominance with nothing between
    for n in range(1, 8):
        ps = enumerate_partitions(n)
        for p in ps:
            below = [q for q in ps if q != p and dominates(p, q)]
            expected = sorted(
                (
                    q
                    for q in below
                    if not any(r != p and r != q and dominates(r, q) and dominates(p, r) for r in below)
                ),
                key=lambda q: q.parts,
            )
            assert partition_coverings_below(p) == expected, str(p)


def test_is_cm_shape():
    assert is_cm_shape(Partition((5, 2)))
    assert is_cm_shape(Partition((4, 1, 1, 1)))
    assert is_cm_shape(Partition((3, 3, 1)))
    assert not is_cm_shape(Partition((3, 2, 1)))
    assert not is_cm_shape(Partition((2, 2, 2)))


def test_bidominance_examples():
    assert bidominates(bp((3, 2), (2, 1)), bp((2, 1, 1), (3, 1)))
    assert not bidominates(bp((2, 1, 1), (3, 1)), bp((3, 2), (2, 1)))
    assert bidominates(bp((2,), ()), bp((1,), (1,)))
    assert bidominates(bp((1,), (1,)), bp((1, 1), ()))
    assert not bidominates(bp((1, 1), ()), bp((1,), (1,)))
    with pytest.raises(SizeMismatchError):
        bidominates(bp((1,), ()), bp((2,), ()))


def test_bidominance_extremes():
    for n in range(1, 6):
        top = bp((n,), ())
        bottom = bp((), (1,) * n)
        for other in enumerate_bipartitions(n):
            assert bidominates(top, other)
            assert bidominates(other, bottom)


@given(st.integers(2, 5), st.data())
def test_bidominance_is_a_partial_order(n, data):
    shapes = enumerate_bipartitions(n)
    a = data.draw(st.sampled_from(shapes))
    b = data.draw(st.sampled_from(shapes))
    c = data.draw(st.sampled_from(shapes))
    assert bidominates(a, a)
    if bidominates(a, b) and bidominates(b, a):
        assert a == b
    if bidominates(a, b) and bidominates(b, c):
        assert bidominates(a, c)


def test_hecke_and_induced_orders_reverse_the_small_chain():
    low, mid, high = bp((1,), (1,)), bp((1, 1), ()), bp((2,), ())
    for leq in (hecke_leq, induced_leq):
        assert leq(low, mid) and leq(mid, high)
        assert not leq(mid, low) and not leq(high, mid)
    # bidominance orders the same three shapes the other way around
    assert bidominates(high, low) and bidominates(low, mid)


def test_bipartition_covering_examples():
    # moving a partial column between components, same rows
    assert bp((3, 1, 1, 1), (2, 2, 2, 1)) in bipartition_coverings_below(
        bp((3, 2, 2, 1), (2, 1, 1, 1))
    )
    # a one-box Brylawski move needs the other component flat along the rows
    assert bp((2, 1, 1), ()) in bipartition_coverings_below(bp((2, 2), ()))
    assert bipartition_coverings_below(bp((), (1, 1, 1))) == []
    assert bipartition_coverings_below(bp((2,), ())) == [bp((1,), (1,))]


def test_box_move_inside_left_component_is_gated():
    # ((2),()) does not cover ((1,1),()): ((1),(1)) sits strictly between
    assert bp((1, 1), ()) not in bipartition_coverings_below(bp((2,), ()))


def test_coverings_against_pairwise_oracle():
    for n in range(1, 6):
        shapes = enumerate_bipartitions(n)
        for a in shapes:
            below = [c for c in shapes if c != a and bidominates(a, c)]
            expected = sorted(
                (
                    c
                    for c in below
                    if not any(
                        d != a and d != c and bidominates(a, d) and bidominates(d, c)
                        for d in below
                    )
                ),
                key=Bipartition.sort_key,
            )
            assert bipartition_coverings_below(a) == expected, str(a)


def test_enumerate_bipartitions_counts():
    # sum of p(a) * p(n - a)
    assert len(enumerate_bipartitions(0)) == 1
    assert len(enumerate_bipartitions(2)) == 5
    assert len(enumerate_bipartitions(3)) == 10
    assert len(enumerate_bipartitions(4)) == 20
    assert len(enumerate_bipartitions(6)) == 65


def test_partition_counts_match_the_enumeration():
    assert _partition_counts(15) == [len(enumerate_partitions(k)) for k in range(16)]
    assert _partition_counts(0) == [1]


def test_bipartition_enumeration_is_capped_before_any_partition_is_built(monkeypatch):
    """|BP_24| = 94,235 is within `max_enumeration`; |BP_25| = 129,512 is refused at once."""
    assert len(enumerate_bipartitions(24)) == 94235
    built = []
    check = Partition.__post_init__
    monkeypatch.setattr(Partition, "__post_init__", lambda self: built.append(check(self)))
    with pytest.raises(ResourceLimitExceeded, match="^enumeration size 129512 exceeds cap 100000$"):
        enumerate_bipartitions(25)
    assert built == []
    with pytest.raises(ValueError, match="n must be non-negative"):
        enumerate_bipartitions(-25)


def test_hasse_diagram_structure():
    h = hasse_diagram(2)
    chain = [bp((2,), ()), bp((1,), (1,)), bp((1, 1), ())]
    for upper, lower in zip(chain, chain[1:]):
        assert (h.index(upper), h.index(lower)) in set(h.edges)
    assert h.maximal_chain_lengths() == {4}


def test_hasse_diagram_n3_not_graded():
    assert hasse_diagram(3).maximal_chain_lengths() == {6, 7}


def test_hasse_n4_has_no_meet_for_witness_quadruple():
    a, b = bp((2,), (1, 1)), bp((2, 2), ())
    c, d = bp((2, 1, 1), ()), bp((), (2, 2))
    assert c in bipartition_coverings_below(a)
    assert c in bipartition_coverings_below(b)
    assert bidominates(a, d) and a != d
    assert bidominates(b, d) and b != d
    assert not bidominates(c, d) and not bidominates(d, c)


def test_hasse_serialization_round_trip():
    import json

    h = hasse_diagram(2)
    doc = json.loads(json.dumps(h.to_json()))
    assert doc["n"] == 2
    assert len(doc["vertices"]) == 5
    assert sorted(map(tuple, doc["edges"])) == sorted(h.edges)
    dot = h.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == len(h.edges)


def test_closure_matches_bidominance_small():
    for n in (2, 3):
        h = hasse_diagram(n)
        closure = h.closure()
        for i, a in enumerate(h.vertices):
            for j, b in enumerate(h.vertices):
                assert ((i, j) in closure) == bidominates(a, b)


def run_command(*argv):
    args = build_parser().parse_args(argv)
    return args.func(args)


TWO, ONE = bp((2,), ()), bp((1,), ())


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: reference_bitableau(TWO, 3), "shape ((2),()) has size 2, expected 3"),
        (lambda: specht_generators(TWO, 3), "shape ((2),()) has size 2, expected 3"),
        (lambda: rank_bound(TWO, 3), "shape ((2),()) has size 2, expected 3"),
        (
            lambda: run_command("variety", "--shape", "((2),())", "--n", "3"),
            "shape ((2),()) has size 2, expected 3",
        ),
        (lambda: radical_report(TWO, 3), "shape ((2),()) has size 2, expected 3"),
        (lambda: universal_gb_check(TWO, 3, ["lex"]), "shape ((2),()) has size 2, expected 3"),
        (lambda: specht_ideal_contains(TWO, ONE, 2), "shapes must have size 2"),
        (lambda: inclusion_by_certificates(TWO, ONE, 2), "shapes must have size 2"),
        (
            lambda: run_command("ideal-inc", "--a", "((2),())", "--b", "((1),())", "--n", "2"),
            "shapes must have size 2",
        ),
    ],
    ids=[
        "reference_bitableau",
        "specht_generators",
        "rank_bound",
        "cli-variety",
        "radical_report",
        "universal_gb_check",
        "specht_ideal_contains",
        "inclusion_by_certificates",
        "cli-ideal-inc",
    ],
)
def test_a_shape_of_the_wrong_size_raises_size_mismatch(call, message):
    with pytest.raises(SizeMismatchError) as raised:
        call()
    assert str(raised.value) == message
