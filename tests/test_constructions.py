"""Differential tests: the column-group constructors against product-built references.

`vandermonde`, the Specht polynomials and `specht_generators` all come from
one expansion routine, so checks that compare two of them (such as the
glueing identity) no longer test the routine itself. The references below
rebuild the same polynomials the slow way: Vandermondes as products of
binomials, generators from all n! relabellings of the reference bitableau,
chain lengths by walking every maximal chain, alternating sums as explicit
signed sums of relabelled copies, orbits by acting with all 2^n n!
signed permutations, enumerations of BP_n by sorting, inclusion steps
by reducing every generator of the smaller ideal, the three orders by
row-by-row prefix sums, the nonempty orbit classes by filtering BP_n, variety
reports by filtering those classes with pairwise bidominance and rendering
each class and representative anew, the
rank bound by enumerating BP_n on every call, dominance coverings by
reading rows through `Partition.at`, bidominance coverings by the four
covering cases read through `Partition.at` (row 0 of the right component
as +infinity, each Brylawski move's rows recovered by scanning), and orbit
representatives through `Partition.at`, and the bipartition and polynomial
parsers with each whitespace skip, expected character and digit scan
written out where it is used.

Coefficients are ints where they are integral. `fraction_only` replays the
route that made every coefficient a Fraction, and the constructors and the
reduced Specht bases must agree with it exactly.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from operator import gt, itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnspecht.cli import EXIT_OK, EXIT_RESOURCE, _json_text, run
from bnspecht.errors import (
    AmbientMismatchError,
    ParseError,
    ResourceLimitExceeded,
    ResourceLimits,
    SizeMismatchError,
)
from bnspecht import cli, groebner, partitions, polynomials, varieties
from bnspecht.groebner import (
    CoveringCertificate,
    GroebnerBasis,
    covering_certificate,
    ideal_contains,
    inclusion_by_certificates,
    specht_ideal_basis,
    universal_gb_check,
)
from bnspecht.partitions import (
    Bipartition,
    Partition,
    bidominates,
    bipartition_coverings_below,
    bp,
    dominates,
    enumerate_bipartitions,
    enumerate_partitions,
    hasse_diagram,
    hecke_leq,
    partition_coverings_below,
)
from bnspecht.invariants import bn_orbit, excluded_orbit_classes, rank_bound
from bnspecht.polynomials import (
    ORDER_TAGS,
    SignedPermutation,
    SparsePolynomial,
    _antisymmetrize,
    _column_expansion,
    _gather,
    _permutation_sign,
    act,
    parse_polynomial,
    vandermonde,
    vandermonde_squares,
)
from bnspecht.tableaux import (
    glue_bitableau,
    num_standard_bitableaux,
    reference_bitableau,
    specht_generators,
    specht_polynomial_bn,
    specht_polynomial_sn,
)
from bnspecht.varieties import (
    OrbitClass,
    decompose_variety,
    decomposition_report,
    orbit_representative,
    orbit_set_nonempty,
)
from tuple_kernel import packed_normal_form, packed_s_polynomial

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


def explicit_alternating_sum(p, domain, images):
    total = SparsePolynomial.zero(p.n)
    for image in images:
        perm = list(range(1, p.n + 1))
        for src, dst in zip(domain, image):
            perm[src - 1] = dst
        g = SignedPermutation.from_permutation(perm)
        total = total + act(g, p).scale(_permutation_sign(domain, image))
    return total


def images_alternating_sum(p, domain, images):
    """sum over images of sgn(domain -> image) * sigma(p), one relabelled copy of p per image.

    sigma sends domain[k] to image[k] for every k and fixes every other
    variable; each image must be a rearrangement of domain. The reference for
    `_antisymmetrize`, and for the image lists that are not a whole group.
    """
    terms = {}
    for image in images:
        source = list(range(p.n))  # sigma(x^e) has exponent e[source[k]] at position k
        for src, dst in zip(domain, image):
            source[dst - 1] = src - 1
        gather = _gather(source)
        sign = _permutation_sign(domain, image)
        for exps, coeff in p.terms.items():
            key = gather(exps)
            terms[key] = terms.get(key, 0) + sign * coeff
    return SparsePolynomial(p.n, terms)


def shuffle_sum(base, parts):
    """sum of sgn(sigma) * sigma(base) over the shuffles sigma of parts, base alternating in each.

    The route `covering_certificate` took before it built only its sorted
    core, kept as the filter reference. A shuffle sends the concatenated
    parts onto their union U, each part onto a subset in increasing order,
    and fixes every other variable. Every permutation of U is one shuffle
    after one tau in G = prod_k S_{part k}, and base alternating in each part
    means sgn(tau) * tau(base) = base, so Alt_U(base) = |G| times the shuffle
    sum. The terms of an alternating base come in G-orbits of |G| terms, each
    orbit holding one term strictly decreasing on every part, and a term with
    a repeated exponent in a part has coefficient 0. So the shuffle sum is
    the antisymmetrization of only the decreasing terms. With one nonempty
    part the only shuffle is the identity, and the sum is base itself.
    """
    parts = [part for part in parts if part]
    if len(parts) < 2:
        return base
    terms = base.terms
    for part in parts:
        if len(part) > 1:
            read = itemgetter(*[i - 1 for i in part])
            terms = {e: c for e, c in terms.items() if all(map(gt, read(e), read(e)[1:]))}
    return _antisymmetrize(SparsePolynomial(base.n, terms), [sum(parts, ())])


def images_shuffle_sum(base, parts):
    """The covering certificate's coset sum, image by image: the reference for `shuffle_sum`.

    One image per choice of set_a's positions in the union, set_a and set_b1
    each keeping its order.
    """
    set_a, set_b1 = parts
    union = set_a + set_b1
    images = (
        image_a + tuple(i for i in union if i not in image_a)
        for image_a in itertools.combinations(union, len(set_a))
    )
    return images_alternating_sum(base, union, images)


def walked_orbit(p):
    """Every signed permutation applied to p, deduplicated, in canonical order."""
    orbit = {
        act(SignedPermutation(perm, signs), p)
        for perm in itertools.permutations(range(1, p.n + 1))
        for signs in itertools.product((1, -1), repeat=p.n)
    }
    return sorted(orbit, key=lambda q: sorted(q.terms.items()))


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


def sorted_partitions(n):
    """Partitions of n from a descending-parts recursion, then sorted."""
    result = []

    def build(remaining, bound, prefix):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(remaining, bound), 0, -1):
            build(remaining - part, part, prefix + [part])

    build(n, n, [])
    return sorted((Partition(t) for t in result), key=lambda p: p.parts)


def sorted_bipartitions(n):
    out = [
        Bipartition(left, right)
        for a in range(n, -1, -1)
        for left in sorted_partitions(a)
        for right in sorted_partitions(n - a)
    ]
    return sorted(out, key=Bipartition.sort_key)


def row_dominates(p, q):
    if p.size != q.size:
        raise SizeMismatchError(f"|{p}| = {p.size} != |{q}| = {q.size}")
    sp = sq = 0
    for k in range(max(p.length, q.length)):
        sp += p.at(k + 1)
        sq += q.at(k + 1)
        if sq > sp:
            return False
    return True


def row_bidominates(a, b):
    if a.size != b.size:
        raise SizeMismatchError(f"|{a}| = {a.size} != |{b}| = {b.size}")
    kmax = max(a.left.length, a.right.length, b.left.length, b.right.length) + 1
    sa = sb = 0
    for k in range(1, kmax + 1):
        if sb + b.left.at(k) > sa + a.left.at(k):
            return False
        sa += a.left.at(k) + a.right.at(k)
        sb += b.left.at(k) + b.right.at(k)
        if sb > sa:
            return False
    return True


def row_hecke_leq(a, b):
    if a.size != b.size:
        raise SizeMismatchError(f"|{a}| = {a.size} != |{b}| = {b.size}")

    def prefix_sum(p, k):
        return sum(p.parts[:k])

    kmax = max(a.left.length, b.left.length, a.right.length, b.right.length)
    for k in range(1, kmax + 1):
        if prefix_sum(a.left, k) > prefix_sum(b.left, k):
            return False
        if a.left.size + prefix_sum(a.right, k) > b.left.size + prefix_sum(b.right, k):
            return False
    return True


def filtered_classes(n):
    return [s for s in enumerate_bipartitions(n) if orbit_set_nonempty(s)]


def filtered_decomposition_report(shape, classes):
    """decomposition_report filtering the classes pairwise and rendering each one anew."""
    kept = [OrbitClass(o, True) for o in classes if not row_bidominates(shape, o)]
    return {
        "bipartition": str(shape),
        "classes": [c.to_json() for c in kept],
        "representatives": [list(map(str, orbit_representative(c.bipartition))) for c in kept],
    }


def enumerating_rank_bound(shape, n):
    """rank_bound enumerating BP_n and building its vertices anew on every call."""
    if shape.size != n:
        raise ValueError(f"shape {shape} has size {shape.size}, expected {n}")
    return sum(
        num_standard_bitableaux(other) ** 2
        for other in enumerate_bipartitions(n)
        if not bidominates(shape, other)
    )


@functools.cache
def pairwise_up_sets(n):
    """Each vertex of BP_n, in vertex order, mapped to the vertices that bidominate it."""
    vertices = enumerate_bipartitions(n)
    return {b: frozenset(a for a in vertices if bidominates(a, b)) for b in vertices}


def filtered_below_any(maxima, n):
    """HasseDiagram.vertices_below, filtering BP_n by pairwise bidominance tested once per n."""
    tops = set(maxima)
    return [other for other, above in pairwise_up_sets(n).items() if not above.isdisjoint(tops)]


def dfs_covering_chain(a, b):
    """HasseDiagram.covering_chain as a DFS over freshly built covers, pruned by bidominance."""
    if a == b:
        return [a]
    for c in bipartition_coverings_below(a):
        if c == b or bidominates(c, b):
            return [a] + dfs_covering_chain(c, b)
    raise RuntimeError(f"no covering chain from {a} down to {b}")


def at_coverings_below(p):
    """partition_coverings_below, padding the rows through `Partition.at` per candidate."""
    found = set()
    m = p.length
    for i in range(1, m + 1):
        for j in range(i + 1, m + 2):
            parts = [p.at(r) for r in range(1, max(m, j) + 1)]
            parts[i - 1] -= 1
            parts[j - 1] += 1
            if any(parts[r] < parts[r + 1] for r in range(len(parts) - 1)):
                continue
            if not (j == i + 1 or parts[i - 1] == parts[j - 1]):
                continue
            found.add(Partition(tuple(parts)))
    return sorted(found, key=lambda q: q.parts)


def at_bipartition_coverings_below(a):
    """bipartition_coverings_below reading rows through `Partition.at`, case by case."""
    lam, mu = a.left, a.right
    found = set()

    def mu_at(i):  # row 0 reads as +infinity so equality chains must start at row 1
        return float("inf") if i == 0 else mu.at(i)

    # case 1: Brylawski move inside the left component, right component flat on rows i-1..k
    for below in at_coverings_below(lam):
        i = next(r for r in range(1, max(lam.length, below.length) + 1) if lam.at(r) != below.at(r))
        k = next(r for r in range(i + 1, max(lam.length, below.length) + 1) if below.at(r) == lam.at(r) + 1)
        if all(mu_at(i - 1) == mu.at(r) for r in range(i, k + 1)):
            found.add(Bipartition(below, mu))

    # case 2: Brylawski move inside the right component, left component flat on rows i..k+1
    for below in at_coverings_below(mu):
        i = next(r for r in range(1, max(mu.length, below.length) + 1) if mu.at(r) != below.at(r))
        k = next(r for r in range(i + 1, max(mu.length, below.length) + 1) if below.at(r) == mu.at(r) + 1)
        if all(lam.at(i) == lam.at(r) for r in range(i + 1, k + 2)):
            found.add(Bipartition(lam, below))

    # case 3: move a partial column from the left component to the right, same rows
    for i in range(1, lam.length + 1):
        if mu_at(i - 1) <= mu.at(i):
            continue
        k = max(r for r in range(i, lam.length + 1) if lam.at(r) == lam.at(i))
        if mu.at(i) != mu.at(k):
            continue
        new_lam = tuple(lam.at(r) - 1 if i <= r <= k else lam.at(r) for r in range(1, lam.length + 1))
        new_mu = tuple(
            mu.at(r) + 1 if i <= r <= k else mu.at(r) for r in range(1, max(mu.length, k) + 1)
        )
        found.add(bp(new_lam, new_mu))

    # case 4: move a partial column from the right component to the left, one row down
    for i in range(1, mu.length + 1):
        k = max(r for r in range(i, mu.length + 1) if mu.at(r) == mu.at(i))
        if lam.at(i + 1) != lam.at(k + 1) or lam.at(i) <= lam.at(i + 1):
            continue
        new_mu = tuple(mu.at(r) - 1 if i <= r <= k else mu.at(r) for r in range(1, mu.length + 1))
        new_lam = tuple(
            lam.at(r) + 1 if i + 1 <= r <= k + 1 else lam.at(r)
            for r in range(1, max(lam.length, k + 1) + 1)
        )
        found.add(bp(new_lam, new_mu))

    return sorted(found, key=Bipartition.sort_key)


def at_orbit_representative(shape):
    """orbit_representative reading rows through `Partition.at`."""
    lam, mu = shape.left, shape.right
    m = mu.length
    coords = []
    for i in range(1, m + 1):
        coords.extend([Fraction(i)] * (lam.at(1) + mu.at(i)))
    coords.extend([Fraction(0)] * lam.at(1))
    tail = m if lam.length <= m else lam.length - 1
    for i in range(m + 1, tail + 1):
        coords.extend([Fraction(i)] * lam.at(i + 1))
    return tuple(coords)


def all_generator_steps(chain, n):
    """Each covering step decided by reducing every generator of the lower shape."""
    return tuple(
        ideal_contains(specht_ideal_basis(upper, n, "lex"), specht_generators(lower, n))
        for upper, lower in zip(chain, chain[1:])
    )


@pytest.mark.parametrize("n", range(13))
def test_enumerations_match_the_sorted_references(n):
    assert enumerate_partitions(n) == sorted_partitions(n)
    assert enumerate_bipartitions(n) == sorted_bipartitions(n)


@pytest.mark.parametrize("n", range(9))
def test_bipartition_orders_match_the_row_references(n):
    shapes = enumerate_bipartitions(n)
    for a, b in itertools.product(shapes, repeat=2):
        assert bidominates(a, b) == row_bidominates(a, b), (a, b)
        assert hecke_leq(a, b) == row_hecke_leq(a, b), (a, b)


def test_dominance_matches_the_row_reference():
    for n in range(11):
        for p, q in itertools.product(enumerate_partitions(n), repeat=2):
            assert dominates(p, q) == row_dominates(p, q), (p, q)


def test_interleaved_rows_alternate_the_components():
    assert bp((3, 1, 1), (2,)).interleaved == (3, 2, 1, 0, 1, 0)
    assert bp((), (2, 2)).interleaved == (0, 2, 0, 2)
    assert bp((), ()).interleaved == ()


def test_orders_reject_mismatched_sizes_as_the_references_do():
    pairs = [
        (dominates, row_dominates, Partition((2,)), Partition((1, 1, 1))),
        (bidominates, row_bidominates, bp((1,), (1,)), bp((2,), (1,))),
        (hecke_leq, row_hecke_leq, bp((), (3,)), bp((1,), ())),
    ]
    for order, reference, a, b in pairs:
        with pytest.raises(SizeMismatchError) as got:
            order(a, b)
        with pytest.raises(SizeMismatchError) as expected:
            reference(a, b)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n", range(13))
def test_nonempty_classes_match_the_filtered_vertices(n):
    assert varieties._nonempty_classes(n) == tuple(filtered_classes(n))


@pytest.mark.parametrize("n", range(11))
def test_orbit_representatives_match_the_at_reference(n):
    for shape in varieties._nonempty_classes(n):
        assert orbit_representative(shape) == at_orbit_representative(shape), shape


@pytest.mark.parametrize("n", range(1, 8))
def test_decompositions_match_the_filtered_reference(n, monkeypatch):
    expected = {
        shape: [OrbitClass(o, True) for o in filtered_classes(n) if not row_bidominates(shape, o)]
        for shape in enumerate_bipartitions(n)
    }
    monkeypatch.setattr(varieties, "orbit_set_nonempty", None)  # not called on this route
    for shape, classes in expected.items():
        assert decompose_variety(shape) == classes, shape


@pytest.mark.parametrize("n", range(8))
def test_variety_reports_match_the_filtered_reference(n):
    classes = filtered_classes(n)
    for shape in enumerate_bipartitions(n):
        expected = _json_text(filtered_decomposition_report(shape, classes))
        assert _json_text(decomposition_report(shape)) == expected, shape


def test_variety_outputs_match_the_recorded_n10_digests():
    expected = json.loads((Path(__file__).parents[1] / "bench" / "expected.json").read_text())
    shapes = enumerate_bipartitions(10)
    for shape in shapes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(["variety", "--shape", str(shape), "--n", "10"]) == 0
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]
        assert got == expected[f"poset-queries/variety/n10/{shape}"], shape
    assert len(shapes) == 481


@pytest.mark.parametrize("n", range(8))
def test_variety_outputs_print_the_report_envelope(n, capsys):
    for shape in enumerate_bipartitions(n):
        assert run(["variety", "--shape", str(shape), "--n", str(n)]) == 0
        expected = _json_text({"status": "ok", "payload": decomposition_report(shape)}) + "\n"
        assert capsys.readouterr().out == expected, shape


FRESH_DECOMPOSITION = """
import json, sys
from bnspecht.partitions import parse_bipartition
from bnspecht.varieties import decompose_variety, decomposition_report
shape = parse_bipartition(sys.argv[1])
print(json.dumps([decomposition_report(shape), [c.to_json() for c in decompose_variety(shape)]]))
"""


def returned_containers(report, classes):
    """Every dict and list handed back by one report and one decomposition."""
    class_dicts = report["classes"]
    return [
        report, class_dicts, report["representatives"], classes, *class_dicts,
        *(c[key] for c in class_dicts for key in ("left", "right")), *report["representatives"],
    ]


def test_reports_share_no_mutable_state():
    shape = bp((2, 1), (1, 1))
    env = dict(os.environ, PYTHONPATH=str(Path(varieties.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-c", FRESH_DECOMPOSITION, str(shape)],
        capture_output=True, text=True, check=True, env=env,
    )
    fresh_report, fresh_classes = json.loads(fresh.stdout)
    first, first_classes = decomposition_report(shape), decompose_variety(shape)
    mutated = {id(x) for x in returned_containers(first, first_classes)}
    for c in first["classes"]:
        c["left"].append(9)
        c["right"].append(9)
        c["nonempty"] = False
        c["extra"] = True
    for coords in first["representatives"]:
        coords.append("9")
    first["classes"].append({})
    first["representatives"].append([])
    first["bipartition"] = "mutated"
    first_classes.append(None)
    second, second_classes = decomposition_report(shape), decompose_variety(shape)
    assert second == fresh_report
    assert [c.to_json() for c in second_classes] == fresh_classes
    assert not mutated & {id(x) for x in returned_containers(second, second_classes)}


def test_bipartition_enumeration_builds_each_size_once(monkeypatch):
    calls = []
    original = partitions.enumerate_partitions
    monkeypatch.setattr(
        partitions, "enumerate_partitions", lambda k: calls.append(k) or original(k)
    )
    assert len(enumerate_bipartitions(10)) == 481
    assert sorted(calls) == list(range(11))


@pytest.mark.parametrize("n", range(1, 6))
def test_generators_of_distinct_shapes_are_distinct(n):
    gens = [g for s in enumerate_bipartitions(n) for g in specht_generators(s, n)]
    assert len(set(gens)) == len(gens)


@pytest.mark.parametrize("shape,n", [(s, n) for s, n in SHAPES_UP_TO_6 if n <= 4], ids=str)
def test_universal_candidate_counts_every_generator_below(shape, n):
    below = [s for s in enumerate_bipartitions(n) if bidominates(shape, s)]
    expected = sum(len(specht_generators(s, n)) for s in below)
    assert universal_gb_check(shape, n, []).generator_count == expected


@pytest.mark.parametrize("n", (3, 4))
def test_inclusion_steps_match_the_all_generator_reduction(n):
    shapes = enumerate_bipartitions(n)
    for a, b in itertools.product(shapes, repeat=2):
        if bidominates(a, b):
            report = inclusion_by_certificates(a, b, n)
            assert report.verified_steps == all_generator_steps(report.chain, n), (a, b)
            assert all(report.verified_steps) and len(report.verified_steps) == len(report.chain) - 1


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


def key_by_key_generators(shape, n):
    """One `_column_expansion` per sorted column-set key, the keys from all n! relabellings."""
    ref = reference_bitableau(shape, n)
    keys = set()
    for perm in itertools.permutations(range(1, n + 1)):
        relabel = lambda cols: tuple(sorted(tuple(sorted(perm[e - 1] for e in c)) for c in cols))
        keys.add((relabel(ref.first.columns()), relabel(ref.second.columns())))
    return [
        _column_expansion(n, first + second, 2, [e for col in second for e in col])
        for first, second in sorted(keys)
    ]


@pytest.mark.parametrize("shape,n", SHAPES_UP_TO_6, ids=str)
def test_generators_match_one_expansion_per_key(shape, n):
    generators = specht_generators(shape, n)
    expected = key_by_key_generators(shape, n)
    assert len(generators) == len(expected)
    for got, want in zip(generators, expected):
        assert got == want
        assert all(type(c) is int for c in got.terms.values())


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


def test_certificate_target_is_capped_before_building():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded):
        covering_certificate(4, 1, 1, ResourceLimits(max_terms=5))  # V^2 of 3 variables: 6 terms
    assert covering_certificate(4, 1, 1, ResourceLimits(max_terms=6)).verified
    with pytest.raises(ResourceLimitExceeded, match="term count 362880"):
        covering_certificate(3, 9, 0)  # 9! terms, past the default cap
    assert time.perf_counter() - start < 1


def test_certificate_products_are_capped_before_building():
    """The products that build a certificate's core pair at most h * 2^(|A| (|B2| - 1)) terms,
    h = |A| + 1, capped before any is formed. Under the default cap the target's |U|! binds first:
    (3,1,7) and (4,1,6), whose targets of 8! terms pass it, verify. (3,4,6)'s 10! target passes a
    cap of 10!, and its products' 5 * 2^20 pairs do not."""
    for case, a, b in ((3, 1, 7), (4, 1, 6)):
        start = time.perf_counter()
        assert covering_certificate(case, a, b).verified
        assert time.perf_counter() - start < 2
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded, match="term count 5242880 exceeds cap 3628800"):
        covering_certificate(3, 4, 6, ResourceLimits(max_terms=3628800))
    assert time.perf_counter() - start < 1


class CoreCaptured(Exception):
    pass


def captured_core(case, a, b, monkeypatch):
    """The core q that `covering_certificate` antisymmetrizes, and the blocks it passes."""
    captured = []

    def antisymmetrize(q, blocks):
        captured.append((q, blocks))
        raise CoreCaptured

    with monkeypatch.context() as mp:
        mp.setattr(groebner, "_antisymmetrize", antisymmetrize)
        with pytest.raises(CoreCaptured):
            covering_certificate(case, a, b)
    [(q, blocks)] = captured
    return q, blocks


@pytest.mark.parametrize("case,a,b,peak", [(3, 2, 5, 92400), (3, 3, 4, 76896)])
def test_certificates_under_the_product_cap_verify(case, a, b, peak, monkeypatch):
    """The two certificates whose coset terms, of peak terms, the filter route expanded in full
    (about 0.4 s each) verify from cores of 567 and 1312 terms."""
    q, [union] = captured_core(case, a, b, monkeypatch)
    assert len(q.terms) == {92400: 567, 76896: 1312}[peak]
    assert len(_antisymmetrize(q, [union[:a], union[a:]]).terms) == peak
    assert covering_certificate(case, a, b).verified


def product_coset_term(case, a, b):
    """The A term V^2(A) V^2(B1) prod_{i in A} R(x_i^2) [x_i^2], one binomial at a time."""
    extra = case == 4
    n = a + 2 * b + extra
    set_a = range(1, a + 1)
    base = product_vandermonde(n, set_a, 2) * product_vandermonde(
        n, range(a + 1, a + b + extra + 1), 2
    )
    for i in set_a:
        xi2 = SparsePolynomial.variable(n, i, 2)
        for j in range(a + b + extra + 1, n + 1):
            base = base * (xi2 - SparsePolynomial.variable(n, j, 2))
        if extra:
            base = base * xi2
    return base


BENCH_COVER_CASES = sorted(
    tuple(map(int, key.split("/")[2:]))
    for key in json.loads((Path(__file__).parents[1] / "bench" / "expected.json").read_text())
    if key.startswith("poly-construct/cover/")
)


@pytest.mark.parametrize(
    "case,a,b", BENCH_COVER_CASES + [(3, 8, 0), (4, 7, 0)] + [(3, 2, 5), (3, 3, 4)]
)
def test_coset_term_matches_the_product_route(case, a, b, monkeypatch):
    """The core the certificate antisymmetrizes, against the binomial products it replaces:
    every certificate of ambient n <= 8, and the two whose coset terms peak at 92400 and 76896
    terms. Antisymmetrized over S_A x S_B1 it is the coset term (the lemma alone); over their
    union, the filter route's shuffle sum and, for n <= 8, one relabelled copy per coset.
    """
    q, [union] = captured_core(case, a, b, monkeypatch)
    parts = (union[:a], union[a:])  # A = 1..a, then B1
    base = product_coset_term(case, a, b)
    assert _antisymmetrize(q, parts) == base
    symmetrized = _antisymmetrize(q, [union])
    assert symmetrized == shuffle_sum(base, parts)
    if base.n <= 8:
        assert symmetrized == images_shuffle_sum(base, parts)


def flipped_sign_rule(q, j, h):
    """q with its core term in which x_j has power 2(h-1-k) signed (-1)^k, not (-1)^(h-1-k).

    The binomials leave x_j alone, so x_j's power in a term of q is its core term's.
    """
    terms = {}
    for exps, coeff in q.terms.items():
        k = h - 1 - exps[j - 1] // 2
        terms[exps] = coeff * (-1) ** k * (-1) ** (h - 1 - k)
    return SparsePolynomial(q.n, terms)


@pytest.mark.parametrize("case,a,b", [c for c in BENCH_COVER_CASES if c[1] % 2 and c[2]])
def test_a_flipped_sign_rule_fails_both_identities(case, a, b, monkeypatch):
    """The sign rule (-1)^k differs from (-1)^(h-1-k) by (-1)^(h-1), so on every cover with
    B2 nonempty and h = a + 1 even the mutant core fails the lemma and the shuffle sum."""
    q, [union] = captured_core(case, a, b, monkeypatch)
    mutant = flipped_sign_rule(q, len(union) + 1, a + 1)
    base = product_coset_term(case, a, b)
    parts = (union[:a], union[a:])
    assert _antisymmetrize(mutant, parts) != base
    assert _antisymmetrize(mutant, [union]) != shuffle_sum(base, parts)


def test_shuffle_sum_needs_a_base_alternating_in_each_part():
    """With two nonempty parts the shuffle sum reads only the terms decreasing on each part,
    exact only for a base alternating in both; with one, the sum is the base, alternating or not."""
    p = parse_polynomial("x1^2*x2", 3)
    assert shuffle_sum(p, ((1, 2), (3,))) != images_shuffle_sum(p, ((1, 2), (3,)))
    assert shuffle_sum(p, ((1, 2), (3,))) == vandermonde(3, (1, 2, 3))
    assert shuffle_sum(p, ((1, 2), ())) == images_shuffle_sum(p, ((1, 2), ())) == p
    alternating = parse_polynomial("x1^2*x2 - x1*x2^2", 3)
    assert shuffle_sum(alternating, ((1, 2), (3,))) == images_shuffle_sum(
        alternating, ((1, 2), (3,))
    )


def test_cli_certify_cover_caps_the_products(capsys):
    argv = ["certify-cover", "--case", "3", "--a", "4", "--b", "6", "--max-terms", "3628800"]
    start = time.perf_counter()
    assert run(argv) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "resource-exceeded",
        "error": "term count 5242880 exceeds cap 3628800",
    }
    assert run(["certify-cover", "--case", "3", "--a", "1", "--b", "7"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["payload"]["verified"] is True


def test_cli_certify_cover_caps_the_target(capsys):
    start = time.perf_counter()
    argv = ["certify-cover", "--case", "4", "--a", "1", "--b", "1", "--max-terms", "5"]
    assert run(argv) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1
    assert '"resource-exceeded"' in capsys.readouterr().out


ALTERNATING_CASES = [
    ("x1^3*x2 - 2*x2^2*x3 + x4", 4),
    ("x1^2*x2*x5^3 + 3*x3 - x4^2*x5", 5),
    ("x2*x3^2*(x1^2 - 1) + x1*x4", 4),
    ("7", 3),
]


@pytest.mark.parametrize("text,n", ALTERNATING_CASES)
def test_alternating_sum_matches_explicit_sum(text, n):
    p = parse_polynomial(text, n)
    for k in range(n + 1):
        for domain in itertools.permutations(range(1, n + 1), k):
            images = list(itertools.permutations(domain))
            assert _antisymmetrize(p, [domain]) == explicit_alternating_sum(p, domain, images)
            half = images[::2]
            assert images_alternating_sum(p, domain, half) == explicit_alternating_sum(
                p, domain, half
            )


def test_alternating_sum_in_one_variable():
    p = parse_polynomial("3*x1^2 - x1 + 5", 1)
    for domain in ((), (1,)):
        images = list(itertools.permutations(domain))
        assert _antisymmetrize(p, [domain]) == explicit_alternating_sum(p, domain, images)
        assert _antisymmetrize(p, [domain]) == p


@st.composite
def alternating_cases(draw):
    """(p, domain, images): int and a/b coefficients in 1 to 5 variables, some of the images."""
    n = draw(st.integers(1, 5))
    coefficients = st.one_of(
        st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=6)
    )
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coefficients, max_size=6))
    domain = tuple(draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))])
    images = list(itertools.permutations(domain))
    chosen = draw(st.lists(st.sampled_from(images), max_size=len(images), unique=True))
    return SparsePolynomial(n, terms), domain, chosen if draw(st.booleans()) else images


@settings(deadline=None, max_examples=150)
@given(alternating_cases())
@example((parse_polynomial("x1*x2 - 1/2*x3^2", 3), (1, 2), [(1, 2), (2, 1)]))  # cancels
@example((parse_polynomial("2/3*x1^2*x2 + 5", 2), (1, 2), [(2, 1)]))
def test_alternating_sum_matches_the_signed_action_sum(case):
    p, domain, images = case
    if sorted(images) == sorted(itertools.permutations(domain)):
        total = _antisymmetrize(p, [domain])
    else:
        total = images_alternating_sum(p, domain, images)
    assert total == explicit_alternating_sum(p, domain, images)
    assert 0 not in total.terms.values()


@st.composite
def antisymmetrize_cases(draw):
    """(p, blocks): int and a/b coefficients in 1 to 5 variables, 1 to 3 disjoint blocks.

    Exponents run over 0..2, so many terms repeat an exponent inside a block.
    """
    n = draw(st.integers(1, 5))
    coefficients = st.one_of(
        st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=6)
    )
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), coefficients, max_size=8))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=4)))
    return SparsePolynomial(n, terms), [tuple(order[i:j]) for i, j in zip(cuts, cuts[1:])]


@settings(deadline=None, max_examples=150)
@given(antisymmetrize_cases())
@example((parse_polynomial("x1^2*x2 + x1*x2^2 + x3^2*x3", 3), [(1, 2)]))  # cancels to 0
@example((parse_polynomial("1/2*x1^2*x2 - 1/2*x1*x2^2 + 1/3*x3", 3), [(1, 2), (3,)]))  # integral
@example((parse_polynomial("x1^2*x3 + 2/3*x2*x4^2 - x1*x2*x3*x4", 4), [(3, 1), (2, 4)]))
@example((parse_polynomial("x1*x2^2*x3 - 5*x4^2*x5 + 1/4*x2", 5), [(1, 2), (3,), (4, 5)]))
def test_antisymmetrize_matches_the_signed_action_sum(case):
    p, blocks = case
    images = (sum(parts, ()) for parts in itertools.product(*map(itertools.permutations, blocks)))
    total = _antisymmetrize(p, blocks)
    assert total == explicit_alternating_sum(p, sum(blocks, ()), images)
    assert 0 not in total.terms.values()
    assert all(type(c) is int for c in total.terms.values() if Fraction(c).denominator == 1)
    assert_matches_fraction_route(lambda: _antisymmetrize(p, blocks), integral=False)


def test_alternating_sum_of_a_monomial_is_a_vandermonde():
    # sum_sigma sgn(sigma) x_sigma(1)^2 x_sigma(2) is V(x1, x2, x3)
    p = parse_polynomial("x1^2*x2", 3)
    assert _antisymmetrize(p, [(1, 2, 3)]) == vandermonde(3, (1, 2, 3))


ORBIT_CASES = [
    ("x1*x2*x3", 3),
    ("x1*x2*x3", 5),
    ("x1^2 + x2^2", 4),
    ("x1^2 + x2^2", 5),
    ("5", 4),
    ("5", 0),
    ("0", 3),
    ("x1", 1),
    ("x2*x3*(x1^2 - 1)", 5),
    ("x1^3*x2 - x2*x4^2 + x3", 4),
    ("x1^2*x2*x3 + x1", 5),
]


@pytest.mark.parametrize("text,n", ORBIT_CASES)
def test_bn_orbit_matches_the_group_walk(text, n):
    p = parse_polynomial(text, n)
    assert bn_orbit(p) == walked_orbit(p)


@pytest.mark.parametrize("n", range(9))
def test_rank_bound_matches_the_enumerating_reference(n):
    for shape in enumerate_bipartitions(n):
        assert rank_bound(shape, n) == enumerating_rank_bound(shape, n), shape


def test_one_n_builds_its_covers_once(monkeypatch):
    partitions._hasse_diagram.cache_clear()
    calls = []
    original = partitions.bipartition_coverings_below
    monkeypatch.setattr(
        partitions, "bipartition_coverings_below", lambda v: calls.append(v) or original(v)
    )
    n = 4
    for shape in enumerate_bipartitions(n):
        rank_bound(shape, n)
        decompose_variety(shape)
    assert excluded_orbit_classes(parse_polynomial("x2*x3*(x1^2 - 1)", n), n)
    universal_gb_check(bp((1, 1), (1, 1)), n, ["lex"])
    assert calls == list(hasse_diagram(n).vertices)


def test_one_n_tabulates_its_classes_once(monkeypatch):
    varieties._class_rows.cache_clear()
    varieties._representative_rows.cache_clear()
    rendered, represented = [], []
    to_json, representative = OrbitClass.to_json, varieties.orbit_representative
    monkeypatch.setattr(OrbitClass, "to_json", lambda c: rendered.append(c) or to_json(c))
    monkeypatch.setattr(
        varieties, "orbit_representative", lambda s: represented.append(s) or representative(s)
    )
    for shape in (bp((2, 1), (1, 1)), bp((), (3, 2))):
        decomposition_report(shape)
    classes = set(varieties._nonempty_classes(5))
    assert len({c.bipartition for c in rendered}) == len(rendered) <= len(classes)
    assert {c.bipartition for c in rendered} <= classes
    assert len(set(represented)) == len(represented) <= len(classes)
    assert set(represented) <= classes


def test_one_n_renders_its_class_rows_once(monkeypatch, capsys):
    varieties._class_rows.cache_clear()
    varieties._representative_rows.cache_clear()
    cli._variety_rows.cache_clear()
    rendered = []
    json_text = cli._json_text

    def recording(value, indent=""):
        rendered.append(value)
        return json_text(value, indent)

    monkeypatch.setattr(cli, "_json_text", recording)
    shapes = (bp((), (1, 1, 1, 1, 1)), bp((1,), (1, 1, 1, 1)))  # 18 and 16 of the 19 rows
    for shape in shapes:
        assert run(["variety", "--shape", str(shape), "--n", "5"]) == 0
    out = capsys.readouterr().out
    monkeypatch.undo()
    assert out == "".join(
        _json_text({"status": "ok", "payload": decomposition_report(shape)}) + "\n"
        for shape in shapes
    )
    rows = len(varieties._class_rows(5))
    class_dicts = [v for v in rendered if type(v) is dict and "nonempty" in v]
    representatives = [
        v for v in rendered if type(v) in (list, tuple) and v and all(type(c) is str for c in v)
    ]
    assert len(decompose_variety(shapes[0])) <= len(class_dicts) <= rows
    assert len(decompose_variety(shapes[0])) <= len(representatives) <= rows


@pytest.mark.parametrize("n", range(8))
def test_down_sets_match_the_bidominance_rows(n):
    diagram = hasse_diagram(n)
    assert hasse_diagram(n) is diagram
    for a in diagram.vertices:
        row = sum(1 << j for j, b in enumerate(diagram.vertices) if bidominates(a, b))
        assert diagram.down_set(a) == row, a


@pytest.mark.parametrize("n", range(7))
def test_below_any_matches_the_filtered_reference(n):
    vertices = list(pairwise_up_sets(n))
    for k in range(4):
        for tops in itertools.combinations(vertices, k):
            assert hasse_diagram(n).vertices_below(*tops) == filtered_below_any(tops, n), tops


@pytest.mark.parametrize("n", range(6))
def test_covering_chains_match_the_dfs_reference(n):
    shapes = enumerate_bipartitions(n)
    for a, b in itertools.product(shapes, repeat=2):
        if bidominates(a, b):
            assert hasse_diagram(a.size).covering_chain(a, b) == dfs_covering_chain(a, b), (a, b)


def test_chain_and_down_set_queries_refuse_pairs_off_the_diagram():
    """The bidominance guard names the pair; a vertex of another BP_n is named too."""
    a, b = bp((1, 1), ()), bp((1,), (1,))
    with pytest.raises(ValueError, match=re.escape(f"{a} does not bidominate {b}")):
        inclusion_by_certificates(a, b, 2)
    diagram, stranger = hasse_diagram(3), bp((2,), ())
    for top, bottom in [(bp((3,), ()), stranger), (stranger, bp((1, 1, 1), ()))]:
        with pytest.raises(ValueError, match=re.escape(f"{stranger} is not a vertex of BP_3")):
            diagram.covering_chain(top, bottom)
    assert diagram.vertices_below() == []


@pytest.mark.parametrize("n", range(13))
def test_bipartition_coverings_match_the_at_reference(n):
    vertices = enumerate_bipartitions(n)
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for i, v in enumerate(vertices):
        expected = at_bipartition_coverings_below(v)
        assert bipartition_coverings_below(v) == expected, v
        edges.extend((i, index[c]) for c in expected)
    assert hasse_diagram(n).edges == tuple(sorted(edges))


def test_partition_coverings_match_the_at_reference():
    for n in range(13):
        for p in enumerate_partitions(n):
            assert partition_coverings_below(p) == at_coverings_below(p), p


@st.composite
def partitions_of(draw, n):
    """A partition of n, each part drawn at most the one before it."""
    parts = []
    while n:
        parts.append(draw(st.integers(1, min(n, parts[-1] if parts else n))))
        n -= parts[-1]
    return Partition(tuple(parts))


@st.composite
def bipartitions_up_to(draw, size):
    """A bipartition of size at most `size`."""
    n = draw(st.integers(0, size))
    a = draw(st.integers(0, n))
    return Bipartition(draw(partitions_of(a)), draw(partitions_of(n - a)))


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 30).flatmap(partitions_of), bipartitions_up_to(20))
def test_coverings_beyond_n12_match_the_at_references(p, a):
    assert partition_coverings_below(p) == at_coverings_below(p)
    assert bipartition_coverings_below(a) == at_bipartition_coverings_below(a)


# ---------------------------------------------------------------------------
# integer coefficients against the Fraction-only route


def fraction_only_init(self, n, terms=None):
    """The constructor of the Fraction-only route: every coefficient becomes a Fraction."""
    self.n = n
    clean = {}
    for exps, coeff in (terms or {}).items():
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        if coeff:
            if len(exps) != n:
                raise AmbientMismatchError(f"exponent tuple {exps} does not match n={n}")
            clean[exps] = coeff
    self.terms = clean
    self._hash = None


def fraction_quotient(a, b):
    return Fraction(a) / b


@contextlib.contextmanager
def fraction_only():
    """Inside the block, every coefficient and every quotient is a Fraction.

    Both coefficient helpers are replaced in every bnspecht module that binds
    them, and the constructor wraps every coefficient, the +-1 ints of the
    column expansion included, as the route before integer coefficients did.
    `_of_clean`, which skips the constructor, goes through it here.
    A context manager rather than a pytest fixture, so one test (or one
    hypothesis example) can build the same thing in both modes.
    """
    replacements = [
        ("_normalize", polynomials._normalize, Fraction),
        ("_exact_quotient", polynomials._exact_quotient, fraction_quotient),
    ]
    with pytest.MonkeyPatch.context() as mp:
        patched = set()
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] != "bnspecht":
                continue
            for attr, original, replacement in replacements:
                if getattr(module, attr, None) is original:
                    mp.setattr(module, attr, replacement)
                    patched.add((name, attr))
        assert ("bnspecht.polynomials", "_normalize") in patched
        assert ("bnspecht.groebner", "_exact_quotient") in patched
        mp.setattr(SparsePolynomial, "__init__", fraction_only_init)
        mp.setattr(SparsePolynomial, "_of_clean", SparsePolynomial)
        yield


def coefficients(obj):
    """Every coefficient of every polynomial inside obj."""
    if isinstance(obj, SparsePolynomial):
        return list(obj.terms.values())
    if isinstance(obj, GroebnerBasis):
        return coefficients(obj.generators)
    if isinstance(obj, CoveringCertificate):
        return coefficients((obj.target, obj.symmetrized))
    return [c for item in obj for c in coefficients(item)]


def assert_matches_fraction_route(build, integral=True):
    """build() must equal its Fraction-only replay, with ints where integral.

    Equal ints and Fractions compare equal, so without the type checks the
    comparison could not tell the two routes apart.
    """
    fast = build()
    with fraction_only():
        reference = build()
    assert fast == reference
    assert all(type(c) is Fraction for c in coefficients(reference))
    for c in coefficients(fast):
        assert type(c) is int or (not integral and type(c) is Fraction and c.denominator > 1), c
    return fast


SHAPES_UP_TO_5 = [(s, n) for s, n in SHAPES_UP_TO_6 if n <= 5]


@pytest.mark.parametrize("shape,n", SHAPES_UP_TO_5, ids=str)
def test_constructors_match_the_fraction_route(shape, n):
    bt = reference_bitableau(shape, n)
    head = tuple(range(1, min(n, 3) + 1))
    images = list(itertools.permutations(head))
    shift = SignedPermutation(
        (*range(2, n + 1), 1), tuple(-1 if i % 2 == 0 else 1 for i in range(n))
    )
    assert assert_matches_fraction_route(lambda: specht_polynomial_bn(bt))
    assert assert_matches_fraction_route(lambda: specht_generators(shape, n))
    assert_matches_fraction_route(lambda: act(shift, specht_polynomial_bn(bt)))
    assert_matches_fraction_route(lambda: _antisymmetrize(specht_polynomial_bn(bt), [head]))
    assert_matches_fraction_route(
        lambda: images_alternating_sum(specht_polynomial_bn(bt), head, images[::2])
    )
    assert_matches_fraction_route(lambda: bn_orbit(specht_polynomial_bn(bt)))


@pytest.mark.parametrize("k", range(6))
def test_vandermondes_match_the_fraction_route(k):
    for subset in itertools.combinations(range(1, 6), k):
        for indices in (subset, subset[::-1]):
            assert_matches_fraction_route(lambda: vandermonde(5, indices))
            assert_matches_fraction_route(lambda: vandermonde_squares(5, indices))


CERTIFICATE_CASES = [
    (case, a, b)
    for case in (3, 4)
    for a in range(1, 6)
    for b in range(3)
    if a + 2 * b + (case == 4) <= 5
]


@pytest.mark.parametrize("case,a,b", CERTIFICATE_CASES)
def test_covering_certificates_match_the_fraction_route(case, a, b):
    assert assert_matches_fraction_route(lambda: covering_certificate(case, a, b)).verified


@pytest.mark.parametrize("shape,n", SHAPES_UP_TO_5, ids=str)
def test_reduced_specht_bases_match_the_fraction_route(shape, n):
    for order in ("lex", "degrevlex"):
        assert_matches_fraction_route(lambda: specht_ideal_basis(shape, n, order))


def term_dicts(min_size=0):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 2),
        st.integers(-6, 6).filter(bool),
        min_size=min_size,
        max_size=5,
    )


@settings(deadline=None, max_examples=60)
@given(
    term_dicts(),
    st.lists(term_dicts(min_size=1), min_size=1, max_size=3),
    st.sampled_from(ORDER_TAGS),
)
@example({(2, 0): 1}, [{(1, 0): 3, (0, 0): -1}], "lex")
@example({(1, 1): 1}, [{(1, 0): 2, (0, 0): 1}, {(0, 1): 3, (0, 0): 2}], "degrevlex")
def test_normal_form_and_monic_match_the_fraction_route(p, basis, order):
    def s_polynomials():
        gens = [SparsePolynomial(2, d) for d in basis]
        return [packed_s_polynomial(f, g, order) for f, g in itertools.combinations(gens, 2)]

    def build():
        gens = [SparsePolynomial(2, d) for d in basis]
        return (
            packed_normal_form(SparsePolynomial(2, p), gens, order),
            [g.monic(order) for g in gens],
            [SparsePolynomial(2, terms) for terms in s_polynomials()],
        )

    *_, s_polys = assert_matches_fraction_route(build, integral=False)
    raw = s_polynomials()
    assert [SparsePolynomial(2, terms) for terms in raw] == s_polys
    assert all(0 not in terms.values() for terms in raw)


def test_non_integral_quotients_stay_exact():
    monic = parse_polynomial("2*x1 + 1", 1).monic()
    assert monic.terms == {(1,): 1, (0,): Fraction(1, 2)}
    assert [type(c) for c in monic.terms.values()] == [int, Fraction]
    basis = [parse_polynomial("3*x1 - 1", 1)]
    remainder = packed_normal_form(parse_polynomial("x1^2", 1), basis, "lex")
    assert remainder.terms == {(0,): Fraction(1, 9)}


# ---------------------------------------------------------------------------
# the parsers against their character-by-character references


def scanning_parse_partition(text, offset=0):
    """parse_partition with every whitespace skip and expected character spelled out."""
    i = offset
    while i < len(text) and text[i].isspace():
        i += 1
    if i >= len(text) or text[i] != "(":
        raise ParseError("expected '('", i)
    i += 1
    parts = []
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i < len(text) and text[i] == ")":
            return Partition(tuple(parts)), i + 1
        start = i
        while i < len(text) and text[i].isdigit():
            i += 1
        if i == start:
            raise ParseError("expected a part or ')'", i)
        parts.append(int(text[start:i]))
        while i < len(text) and text[i].isspace():
            i += 1
        if i < len(text) and text[i] == ",":
            i += 1
        elif i < len(text) and text[i] == ")":
            return Partition(tuple(parts)), i + 1
        else:
            raise ParseError("expected ',' or ')'", i)


def scanning_parse_bipartition(text):
    """parse_bipartition with every whitespace skip and expected character spelled out."""
    i = 0
    while i < len(text) and text[i].isspace():
        i += 1
    if i >= len(text) or text[i] != "(":
        raise ParseError("expected '(' opening the bipartition", i)
    left, i = scanning_parse_partition(text, i + 1)
    while i < len(text) and text[i].isspace():
        i += 1
    if i >= len(text) or text[i] != ",":
        raise ParseError("expected ',' between the two partitions", i)
    right, i = scanning_parse_partition(text, i + 1)
    while i < len(text) and text[i].isspace():
        i += 1
    if i >= len(text) or text[i] != ")":
        raise ParseError("expected ')' closing the bipartition", i)
    i += 1
    while i < len(text):
        if not text[i].isspace():
            raise ParseError("trailing input after bipartition", i)
        i += 1
    return Bipartition(left, right)


class ScanningParser(polynomials._Parser):
    """The polynomial parser with a digit scan written out at each of its three uses."""

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                self.error("expected an integer exponent after '^'")
            base = base ** int(self.text[start : self.pos])
        return base

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            poly = self.expression()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return poly
        if ch == "x":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                self.error("expected a variable index after 'x'")
            i = int(self.text[start : self.pos])
            if not 1 <= i <= self.n:
                self.error(f"variable x{i} outside ambient 1..{self.n}")
            return SparsePolynomial.variable(self.n, i)
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return SparsePolynomial.constant(self.n, int(self.text[start : self.pos]))
        self.error("expected a number, variable or '('")


def outcome(parse, *args):
    """parse(*args), or the type, message and position of the error it raises."""
    try:
        return parse(*args)
    except ValueError as err:
        return type(err), str(err), getattr(err, "position", None)


PARSER_TEXT = "() ,0123x+-*^"


@settings(deadline=None, max_examples=300)
@given(st.text(PARSER_TEXT, max_size=24), st.integers(0, 3))
@example("((2,1) , (1,1)) ", 0)
@example(" ( (3), () ) x", 0)
@example("(1,,2)", 0)
@example("(1 2)", 1)
@example("((1),(1)", 0)
@example("\t(\n(2,\t1)\n,\t(1 ,)\n)\t\n", 3)
@example("(\t3\n,\n", 0)
@example("()", 3)
@example("((1),())", 12)
@example("((1),()) \t\n x", 0)
@example("((1),())\n)", 0)
def test_partition_parsers_match_the_scanning_references(text, offset):
    assert outcome(partitions.parse_bipartition, text) == outcome(scanning_parse_bipartition, text)
    assert outcome(partitions.parse_partition, text, offset) == outcome(
        scanning_parse_partition, text, offset
    )


# The parser evaluates as it goes and powers are not capped, so a longer string
# such as "3^33333333" would spend its time in big-integer arithmetic.
@settings(deadline=None, max_examples=300)
@given(st.text(PARSER_TEXT, max_size=8))
@example("x1^ 2*(x2 - 3)")
@example("(x1+x2)^3 - x3")
@example("x^2")
@example("x 1")
@example("x1^")
@example("x4 + 1")
@example("2 x1")
def test_polynomial_parser_matches_the_scanning_reference(text):
    assert outcome(parse_polynomial, text, 3) == outcome(
        lambda t, n: ScanningParser(t, n).parse(), text, 3
    )
