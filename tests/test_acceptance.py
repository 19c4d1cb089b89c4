"""Acceptance suite: one test per headline guarantee of the package.

Each test's docstring first line is echoed as a [PASS]/[FAIL] line in the
terminal summary (see conftest.py).
"""

import itertools
import json
from fractions import Fraction
from math import factorial
from pathlib import Path

from bnspecht.groebner import (
    buchberger,
    covering_certificate,
    ideal_contains,
    radical_report,
    specht_ideal_basis,
    universal_gb_check,
)
from bnspecht.invariants import bn_orbit, maximal_detected
from bnspecht.partitions import (
    bidominates,
    bipartition_coverings_below,
    bp,
    enumerate_bipartitions,
    glue,
    hasse_diagram,
    hecke_leq,
    induced_leq,
)
from bnspecht.polynomials import parse_polynomial
from bnspecht.tableaux import (
    all_bitableaux,
    enumerate_standard_bitableaux,
    glue_bitableau,
    num_standard_bitableaux,
    specht_generators,
    specht_polynomial_bn,
    specht_polynomial_sn,
)
from bnspecht.polynomials import SparsePolynomial
from bnspecht.varieties import (
    bn_orbit_type,
    decompose_variety,
    orbit_representative,
    orbit_set_nonempty,
    variety_contains,
)

REPORTS = Path(__file__).resolve().parents[1] / "reports"


def test_criterion_01():
    """criterion 1: covering-move closure equals bidominance for n = 2..6"""
    for n in range(2, 7):
        h = hasse_diagram(n)
        closure = h.closure()
        for i, a in enumerate(h.vertices):
            for j, b in enumerate(h.vertices):
                assert ((i, j) in closure) == bidominates(a, b), (n, str(a), str(b))


def test_criterion_02():
    """criterion 2: order, ideal inclusion and variety inclusion agree for n = 2..4"""
    for n in range(2, 5):
        shapes = enumerate_bipartitions(n)
        gens = {s: specht_generators(s, n) for s in shapes}
        bases = {s: specht_ideal_basis(s, n) for s in shapes}
        classes = {s: {c.bipartition for c in decompose_variety(s)} for s in shapes}
        for a in shapes:
            for b in shapes:
                order = bidominates(a, b)
                ideal = ideal_contains(bases[a], gens[b])
                variety = classes[a] <= classes[b]
                assert order == ideal == variety, (n, str(a), str(b))


def test_criterion_03():
    """criterion 3: the n = 2 ideal chain and its reversal in the coarser orders"""
    low, mid, high = bp((1, 1), ()), bp((1,), (1,)), bp((2,), ())
    assert specht_ideal_basis(low, 2).generators == (
        parse_polynomial("x1^2 - x2^2", 2),
    )
    assert set(specht_ideal_basis(mid, 2).generators) == {
        parse_polynomial("x1", 2),
        parse_polynomial("x2", 2),
    }
    assert specht_ideal_basis(high, 2).generators == (
        SparsePolynomial.constant(2, 1),
    )
    for upper, lower in ((mid, low), (high, mid)):
        assert ideal_contains(specht_ideal_basis(upper, 2), specht_generators(lower, 2))
        assert not ideal_contains(
            specht_ideal_basis(lower, 2), specht_generators(upper, 2)
        )
    for leq in (hecke_leq, induced_leq):
        assert leq(mid, low) and leq(low, high)
        assert not leq(low, mid) and not leq(high, low)


def test_criterion_04():
    """criterion 4: covering certificates verify exactly for a+2b <= 6 and a+2b+1 <= 7"""
    for a in range(1, 7):
        for b in range(1, 7):
            if a + 2 * b <= 6:
                assert covering_certificate(3, a, b).verified, ("case 3", a, b)
    for a in range(1, 8):
        for b in range(0, 7):
            if a + 2 * b + 1 <= 7:
                assert covering_certificate(4, a, b).verified, ("case 4", a, b)


def test_criterion_05():
    """criterion 5: the K^3 orbit-type table and the three empty classes"""
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
    empty = {s for s in enumerate_bipartitions(3) if not orbit_set_nonempty(s)}
    assert empty == {bp((2,), (1,)), bp((1,), (2,)), bp((1,), (1, 1))}


def test_criterion_06():
    """criterion 6: the five-class decomposition for ((1,1),(2)) and pointwise agreement"""
    shape = bp((1, 1), (2,))
    got = {c.bipartition for c in decompose_variety(shape)}
    assert got == {
        bp((4,), ()),
        bp((3, 1), ()),
        bp((2, 2), ()),
        bp((2, 1, 1), ()),
        bp((), (4,)),
    }
    for omega in enumerate_bipartitions(4):
        if orbit_set_nonempty(omega):
            z = orbit_representative(omega)
            assert variety_contains(shape, z, "evaluate") == (omega in got), str(omega)


def test_criterion_07():
    """criterion 7: subideal detection and membership for the orbit ideal of x2*x3*(x1^2-1)"""
    P = parse_polynomial("x2*x3*(x1^2 - 1)", 4)
    label = bp((1, 1), (2,))
    assert maximal_detected(P, 4) == [label]
    orbit = bn_orbit(P)
    assert len(orbit) == 24
    gb = buchberger(orbit, "degrevlex")
    assert ideal_contains(gb, specht_generators(label, 4))
    in_points = [
        (Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(2)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    ]
    for z in in_points:
        assert all(q.evaluate(z) == 0 for q in orbit), z
        assert not bidominates(label, bn_orbit_type(z))
    for omega in enumerate_bipartitions(4):
        if orbit_set_nonempty(omega) and bidominates(label, omega):
            z = orbit_representative(omega)
            assert any(q.evaluate(z) != 0 for q in orbit), str(omega)


def test_criterion_08():
    """criterion 8: non-graded chains, a meetless pair, and the four-step example chain"""
    assert hasse_diagram(3).maximal_chain_lengths() == {6, 7}

    # two incomparable maximal common lower bounds leave the pair without a meet
    a, b = bp((2,), (1, 1)), bp((2, 2), ())
    lows = [
        s
        for s in enumerate_bipartitions(4)
        if bidominates(a, s) and bidominates(b, s)
    ]
    maximal = {
        s for s in lows if not any(t != s and bidominates(t, s) for t in lows)
    }
    assert maximal == {bp((2, 1, 1), ()), bp((1, 1), (1, 1))}
    c, d = sorted(maximal, key=str)
    assert not bidominates(c, d) and not bidominates(d, c)
    assert bp((), (2, 2)) in lows

    # covering chain with its two strict intermediate elements
    chain = [
        bp((3, 3, 2, 1), (2, 2, 2, 1)),
        bp((3, 3, 2, 2), (2, 2, 1, 1)),
        bp((3, 3, 3, 2), (2, 1, 1, 1)),
        bp((3, 2, 2, 2), (2, 2, 2, 1)),
    ]
    for upper, lower in zip(chain, chain[1:]):
        assert lower in bipartition_coverings_below(upper), (str(upper), str(lower))
    top, bottom = chain[0], chain[-1]
    between = {
        s
        for s in enumerate_bipartitions(16)
        if s not in (top, bottom) and bidominates(top, s) and bidominates(s, bottom)
    }
    assert between == set(chain[1:3])


def test_criterion_09():
    """criterion 9: squared filling counts sum to the group order for n = 1..6"""
    for n in range(1, 7):
        total = sum(
            num_standard_bitableaux(s) ** 2 for s in enumerate_bipartitions(n)
        )
        assert total == 2**n * factorial(n), n
    for n in range(1, 6):
        for s in enumerate_bipartitions(n):
            assert len(enumerate_standard_bitableaux(s)) == num_standard_bitableaux(s)


def test_criterion_10():
    """criterion 10: the glueing identity holds for every bitableau with n <= 5"""
    for n in range(1, 6):
        for shape in enumerate_bipartitions(n):
            for bt in all_bitableaux(shape, n):
                lhs = specht_polynomial_bn(bt)
                rhs = specht_polynomial_sn(glue_bitableau(bt), n).substitute_squares()
                for k in sorted(bt.second.entries):
                    rhs = rhs * SparsePolynomial.variable(n, k)
                assert lhs == rhs, str(bt)


def test_criterion_11(tmp_path):
    """criterion 11: universal-basis and radical reports reproduce the archive for n <= 3"""
    orders = ["lex", "deglex", "degrevlex", "lex-rev"]
    findings = []
    for n in (2, 3):
        entries = []
        for shape in enumerate_bipartitions(n):
            doc = universal_gb_check(shape, n, orders).to_json()
            doc["radical"] = radical_report(shape, n)
            entries.append(doc)
            if not all(doc["orders"].values()):
                findings.append(f"{doc['shape']} (n={n}): some order fails")
            if not doc["radical"]["agreement"]:
                findings.append(f"{doc['shape']} (n={n}): radical disagreement")
        out = tmp_path / f"conjecture_n{n}.json"
        out.write_text(json.dumps({"n": n, "orders": orders, "reports": entries, "findings": findings}, indent=2))
        archived = json.loads(out.read_text())
        assert archived["n"] == n and len(archived["reports"]) == len(
            enumerate_bipartitions(n)
        )
        for entry in archived["reports"]:
            assert set(entry["orders"]) == set(orders)
            assert "agreement" in entry["radical"]
        assert out.read_text() == (REPORTS / out.name).read_text(), out.name
    # a failed check is a reportable finding, not a broken build; surface it
    if findings:
        print("reportable findings:", findings)
