"""Buchberger machinery, Specht-ideal inclusions and covering certificates.

Every Groebner computation (`buchberger`, `reduce`, Specht-ideal inclusion
and the universal-basis check) runs on one private kernel over packed
monomials (Monagan and Pearce, CASC 2007). One growth core, `_grown_basis`,
serves `buchberger` and Specht-ideal inclusion, which stops it at the degree
its answer needs. `polynomials._MonomialCodec` lays an exponent tuple out as
one Python int:

- each variable has a field of w bits whose top bit is a guard bit, with
  the variable the order compares first in the most significant field;
- graded orders put the total degree D above the n * w field bits, and
  degrevlex keys are D * 2**(n * w) - F for the fields F;
- the packed monomial is the negated order key, so a min-heap of plain ints
  pops the largest monomial first and a product is one int add.

Lead divides m iff `not sign * (m - lead) & guard`: with every guard bit
clear, the lowest field of m below lead's borrows and sets its guard bit.
Inputs are packed on entry and only the outputs are unpacked, so every
public value is keyed by exponent tuples.

The field width starts from the largest input exponent with headroom. Every
exponent is a non-negative int (construction checks it), so the guard bits
of every input are clear. A product of two monomials whose guard bits are
clear cannot carry into the next field, only set its own guard bit, and every
monomial is popped from the work heap before it can reach an output or a
further product. So each one is guard-checked when it is popped, and a set
guard bit reruns the whole call at double the width: exact at any exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import comb, factorial, inf, prod
from operator import gt, itemgetter

from .errors import DEFAULT_LIMITS, AmbientMismatchError, ResourceLimits
from .partitions import (
    Bipartition,
    _check_size,
    enumerate_bipartitions,
    hasse_diagram,
)
from .polynomials import (
    SparsePolynomial,
    _antisymmetrize,
    _column_expansion,
    _exact_quotient,
    _field_width,
    _integer,
    _largest_exponent,
    _monomial_codec,
    _normalize,
    _parse_order,
    vandermonde_squares,
)
from .tableaux import (
    _column_assignments,
    _column_heights,
    _nonvanishing_assignment,
    _reference_columns,
    _specht_degree,
    _specht_polynomial,
    specht_generators,
)
from .varieties import Point, _nonempty_classes, orbit_representative


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis under a fixed monomial order."""

    generators: tuple[SparsePolynomial, ...]
    order: str
    n: int

    @property
    def is_trivial(self) -> bool:
        """True iff the basis is {1}, i.e. the whole ring."""
        return len(self.generators) == 1 and self.generators[0] == SparsePolynomial.constant(
            self.n, 1
        )

    @cached_property
    def _packed_divisors(self) -> dict[int, list]:
        """Field width -> the generators as packed divisors; `reduce` fills each width once."""
        return {}

    @cached_property
    def _largest_generator_exponent(self) -> int:
        """The generators' largest exponent, for `reduce`'s field width, read once per basis."""
        return _largest_exponent(self.generators)


def reduce(
    p: SparsePolynomial, gb: GroebnerBasis, limits: ResourceLimits = DEFAULT_LIMITS
) -> SparsePolynomial:
    """Normal form of p modulo the basis; p itself modulo the zero ideal (no generators).

    The work and the remainder are held to limits.max_terms.
    """
    if p.n != gb.n:
        raise AmbientMismatchError(f"polynomial in {p.n} variables, basis in {gb.n}")
    if not gb.generators:
        return p

    def remainder(codec):
        divisors = gb._packed_divisors.get(codec.width)
        if divisors is None:
            divisors = gb._packed_divisors[codec.width] = _pack_divisors(gb.generators, codec)
        terms = _normal_form(codec.pack_terms(p.terms), divisors, codec, limits)
        return codec.unpack_polynomial(terms.items())

    largest = max(_largest_exponent((p,)), gb._largest_generator_exponent)
    return _packed_run(gb.n, gb.order, (p, *gb.generators), remainder, largest)


# ---------------------------------------------------------------------------
# the packed kernel
#
# A packed polynomial is a dict from packed monomial to nonzero coefficient.
# A divisor is one tuple (lead, lead key, lead coeff, tail): the leading
# monomial in the exponent form `sign * key` that the guard test reads, its
# packed key, its coefficient and the other terms as (key, coeff) pairs.


class _FieldOverflow(Exception):
    """A popped monomial set a guard bit: the call must rerun with wider fields."""


def _packed_run(n: int, order: str, inputs, run, largest_exponent: int | None = None):
    """run(codec), with fields wide enough for every monomial that run meets.

    The first width holds the largest exponent of the input polynomials
    (largest_exponent, when the caller knows it) with headroom; each overflow
    reruns the whole call at double the width.
    """
    if largest_exponent is None:
        largest_exponent = _largest_exponent(inputs)
    width = _field_width(largest_exponent)
    while True:
        try:
            return run(_monomial_codec(n, order, width))
        except _FieldOverflow:
            width *= 2


def _divisor(terms: dict, sign: int) -> tuple:
    lead = min(terms)  # the smallest packed key is the largest monomial
    return sign * lead, lead, terms[lead], tuple((u, c) for u, c in terms.items() if u != lead)


def _pack_divisors(polys, codec) -> list[tuple]:
    return [_divisor(codec.pack_terms(g.terms), codec.sign) for g in polys if not g.is_zero]


def _monic_divisor(terms: dict, sign: int) -> tuple:
    inverse = _exact_quotient(1, terms[min(terms)])
    scaled = {}
    for u, c in terms.items():
        c *= inverse
        scaled[u] = c if type(c) is int else _normalize(c)
    return _divisor(scaled, sign)


def _divisor_terms(divisor) -> tuple:
    _, lead, coeff, tail = divisor
    return (lead, coeff), *tail


def _normal_form(terms: dict, divisors, codec, limits: ResourceLimits) -> dict:
    """Remainder of the packed polynomial terms on division by the packed divisors.

    The largest live term is popped from a heap of packed ints; a term
    cancelled while still queued is skipped when it surfaces. Reduction only
    adds terms below the popped one, so each term is settled once. `work`
    holds only live terms, a term is pushed only when it is absent from
    `work`, and one found absent when it surfaces is skipped, so a zero kept
    in `work` would be popped and reduced for nothing.

    Each popped monomial is guard-checked before it is used (`_FieldOverflow`
    if a field outgrew its width). `work` is checked against the limits'
    max_terms after every reduction step and the remainder once at the end.
    """
    guard, sign = codec.guard, codec.sign
    cap = limits.max_terms
    work = dict(terms)
    heap = list(work)
    heapify(heap)
    remainder: dict = {}
    while heap:
        m = heappop(heap)
        coeff = work.pop(m, None)
        if coeff is None:
            continue
        x = sign * m
        if x & guard:
            raise _FieldOverflow
        for lead_x, lead, lead_coeff, tail in divisors:
            if not (x - lead_x) & guard:
                quot = m - lead
                factor = -_exact_quotient(coeff, lead_coeff)
                for e, c in tail:
                    target = quot + e
                    acc = work.get(target)
                    if acc is None:
                        work[target] = factor * c
                        heappush(heap, target)
                    else:
                        acc += factor * c
                        if acc:
                            work[target] = acc
                        else:
                            del work[target]
                if len(work) > cap:
                    limits.check("max_terms", len(work))
                break
        else:
            remainder[m] = coeff
    if len(remainder) > cap:
        limits.check("max_terms", len(remainder))
    return remainder


def _s_polynomial(f, g, lcm: int) -> dict:
    """lcm/lt(f) * f - lcm/lt(g) * g for packed divisors, built term by term; the leads cancel."""
    terms: dict = {}
    for (_, lead, lead_coeff, tail), sign in ((f, 1), (g, -1)):
        shift = lcm - lead
        factor = _exact_quotient(sign, lead_coeff)
        for e, c in tail:
            target = shift + e
            terms[target] = terms.get(target, 0) + factor * c
    return {u: c for u, c in terms.items() if c}


def _s_pair_remainders(
    basis: list, sugars: list[int], codec, limits: ResourceLimits, max_sugar: float = inf
):
    """Grow basis by the nonzero S-pair remainders of its packed divisors, yielding each.

    A remainder is appended to basis as a monic divisor, and its sugar to
    sugars, then yielded, and admitted when the generator resumes. When the
    generator is exhausted, basis is a Groebner basis.

    Pairs are queued by (sugar, order of the lcm, (i, j)), smallest first: the
    sugar strategy (Giovini, Mora, Niesi, Robbiano and Traverso, ISSAC 1991).
    sugars holds the sugar of each element given in basis, its degree; a
    remainder's sugar is the larger of its pair's sugar and its degree.
    A pair's sugar is deg(lcm) plus the larger excess of sugar over lead
    degree of its two elements. For homogeneous inputs, such as Specht
    ideals, that is the degree of the lcm. On other inputs under lex,
    queueing by the lcm degree alone, or by the lcm alone, ran small ideals
    in 3 and 4 variables past 60 s on coefficient growth; by sugar they take
    under a second.

    The generator returns at the first popped pair whose sugar exceeds
    max_sugar. No later pair has a smaller sugar: a remainder's sugar is at
    least its pair's, and each pair it forms has at least its sugar. For
    homogeneous inputs the pairs left then all have lcms of degree above
    max_sugar, and basis is a Groebner basis up to that degree (Becker and
    Weispfenning, Groebner Bases, 1993, sec. 10.2): it reduces to zero every
    member of the ideal of degree at most max_sugar.

    Pairs whose S-polynomial is known to reduce to zero are pruned by the
    update of Gebauer and Moeller (J. Symbolic Comput. 6, 1988; Becker and
    Weispfenning, Groebner Bases, 1993, p. 230). It works on each lead's
    variable fields F, the low bits of its exponent form: lead(h) divides an
    lcm iff the guard test passes, `codec.lcm` takes the per-field max of two
    F, and a pair is coprime iff that is their sum. When an element h is
    admitted:

    - M and F: h pairs with every active element i. Of these pairs only those
      whose lcm is minimal under divisibility are kept, one per lcm. A pair
      with coprime leads reduces to zero (Buchberger's first criterion): it
      still counts as a divisor of the other lcms, and it is not queued.
    - Active set: the elements whose lead lead(h) divides form no further
      pairs. They stay in basis as reducers.

    B_k is decided when a pair (i, j) is popped: it dies if, for some element
    h admitted after it, lead(h) divides its lcm and that lcm differs from
    both lcm(i, h) and lcm(j, h). Those elements are fields[j + 1:], and each
    test depends only on the fixed leads, so a pair dies at its pop exactly
    when it would have died at some admission before it: the same pairs are
    reduced in the same order, and a pair never popped is never tested.
    """
    guard, sign, low, lcm_of = codec.guard, codec.sign, codec.low, codec.lcm
    fields: list[int] = []  # each lead's variable fields, F
    excess: list[int] = []  # each element's sugar less the degree of its lead
    active: list[int] = []  # the elements that still form pairs
    queue: list = []  # (sugar, order of the lcm, (i, j), F of the lcm); (i, j) is unique
    degree = codec.degree

    def admit_new_elements():
        for h in range(len(fields), len(basis)):
            lead_x, lead, _, _ = basis[h]
            fh = lead_x & low
            excess.append(sugars[h] - degree(lead))
            new = []
            for i in active:
                lcm = lcm_of(fields[i], fh)
                new.append((lcm, lcm != fields[i] + fh, i))
            # a divisor has the smaller F, so it sorts before its multiples, and a coprime
            # pair (its lcm is the product) before the other pairs with its lcm
            new.sort()
            minimal: list[int] = []
            for lcm, overlapping, i in new:
                if any(not (lcm - m) & guard for m in minimal):
                    continue
                minimal.append(lcm)
                if overlapping:
                    exps = codec.unpack(sign * lcm)
                    pair_sugar = sum(exps) + max(excess[i], excess[h])
                    heappush(queue, (pair_sugar, -codec.pack(exps), (i, h), lcm))
            active[:] = [i for i in active if (fields[i] - fh) & guard]
            active.append(h)
            fields.append(fh)

    admit_new_elements()
    while queue:
        pair_sugar, ascending_lcm, (i, j), lcm = heappop(queue)
        if pair_sugar > max_sugar:
            return
        fi, fj = fields[i], fields[j]
        if any(
            not (lcm - fh) & guard and lcm != lcm_of(fi, fh) and lcm != lcm_of(fj, fh)
            for fh in fields[j + 1 :]
        ):
            continue  # B_k
        s = _normal_form(_s_polynomial(basis[i], basis[j], -ascending_lcm), basis, codec, limits)
        if s:
            basis.append(_monic_divisor(s, sign))
            sugars.append(max(pair_sugar, *map(degree, s)))
            yield basis[-1]
            admit_new_elements()


def buchberger(
    gens, order: str = "lex", limits: ResourceLimits = DEFAULT_LIMITS
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens; the zero ideal keeps their ring."""
    _parse_order(order)  # an unknown order fails even on the zero ideal
    gens = list(gens)
    n = gens[0].n if gens else 0
    if any(g.n != n for g in gens):
        raise AmbientMismatchError("generators live in different rings")
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return GroebnerBasis((), order, n)

    def reduced_basis(codec):
        reduced = _reduce_basis(list(_grown_basis(gens, codec, limits)), codec, limits)
        return tuple(codec.unpack_polynomial(_divisor_terms(d)) for d in reduced)

    return GroebnerBasis(_packed_run(n, order, gens, reduced_basis), order, n)


def _grown_basis(gens, codec, limits: ResourceLimits, max_sugar: float = inf):
    """Yield each element admitted to a Groebner basis of gens, as a monic packed divisor.

    The generators come first, each reduced by those before it and skipped if
    that leaves zero; then the S-pair remainders, up to max_sugar (see
    `_s_pair_remainders`). Every admission is held to limits.max_basis. Drained,
    the elements form a Groebner basis of gens, not yet reduced.
    """
    basis: list[tuple] = []
    sugars: list[int] = []
    for g in gens:
        nf = _normal_form(codec.pack_terms(g.terms), basis, codec, limits)
        if nf:
            basis.append(_monic_divisor(nf, codec.sign))
            sugars.append(g.degree)
            limits.check("max_basis", len(basis))
            yield basis[-1]
    for remainder in _s_pair_remainders(basis, sugars, codec, limits, max_sugar):
        limits.check("max_basis", len(basis))
        yield remainder


def _reduce_basis(basis, codec, limits: ResourceLimits) -> list[tuple]:
    guard = codec.guard
    # minimal: drop generators whose lead is divisible by another's, smallest lead first
    basis = sorted(basis, key=itemgetter(1), reverse=True)
    minimal = []
    for g in basis:
        if any(not (g[0] - h[0]) & guard for h in minimal):
            continue
        minimal.append(g)
    # reduced: take each generator's normal form against the others. Only the smaller
    # leads, minimal[:i], can act: a lead divides only monomials it does not exceed,
    # and every term of g is at most lead(g), which no other lead divides.
    reduced = []
    for i, g in enumerate(minimal):
        nf = _normal_form(dict(_divisor_terms(g)), minimal[:i], codec, limits)
        if nf:
            reduced.append(_monic_divisor(nf, codec.sign))
    return sorted(reduced, key=itemgetter(1))  # largest lead first


def ideal_contains(gb: GroebnerBasis, polys) -> bool:
    return all(reduce(p, gb).is_zero for p in polys)


# ---------------------------------------------------------------------------
# Specht ideals


def specht_ideal_basis(
    shape: Bipartition, n: int, order: str = "lex", limits: ResourceLimits = DEFAULT_LIMITS
) -> GroebnerBasis:
    return buchberger(specht_generators(shape, n, limits), order, limits)


def specht_ideal_contains(
    a: Bipartition,
    b: Bipartition,
    n: int,
    order: str = "lex",
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> bool:
    """True iff the Specht ideal of a contains the Specht ideal of b.

    Decided purely by Groebner reduction; the combinatorial order is never
    consulted, so agreement with bidominance is an independent cross-check.
    The ideal of a is stable under B_n and the generators of b form the orbit
    of b's reference polynomial f, so deciding that one polynomial decides it.

    Specht polynomials are homogeneous and each shape's generators share one
    degree (`tableaux._specht_degree`). Both degrees and f's columns are read
    from the shapes' column heights, computed once per call as plain tuples.
    If a's degree exceeds d = deg f, every nonzero member of I_a has larger
    degree, so the answer is False and no generator is built.

    Otherwise it is decided in Q[y], y = x^2, the order tag applied to y. The
    sign flips grade Q[x] by exponent parity, and each generator of a is
    g_i = x^e_i h_i(y): e_i marks its second tableau's entries and h_i is its
    product of column Vandermondes in y. With f = x^e_f h_f(y), f lies in I_a
    iff h_f lies in J = < y^(e_i & ~e_f) h_i >. If f = sum c_i g_i, the part
    of c_i g_i in the parity class of f is x^(e_i ^ e_f) c'_i(y) g_i =
    x^e_f y^(e_i & ~e_f) c'_i h_i, so cancelling x^e_f puts h_f in J; and
    h_f = sum c'_i y^(e_i & ~e_f) h_i lifts to f = sum c'_i(x^2) x^(e_i ^ e_f) g_i.

    J is homogeneous and h_f has degree d_y = (d - |e_f|) / 2, so a generator
    of J of higher degree cannot contribute: none is built, and if no other
    is left the answer is False. The basis of the rest is grown only through
    the S-pairs of degree at most d_y: a Groebner basis up to degree d_y,
    which reduces h_f to zero iff h_f lies in J. It is neither completed nor
    reduced. The caps are checked as `specht_generators(a)` and then
    `specht_polynomial_bn` on b's reference check them.
    """
    _check_size(n, a, b)
    _parse_order(order)  # an unknown order fails even where the degrees decide
    heights, split = _column_heights(a)
    heights_b, split_b = _column_heights(b)
    d, d_a = _specht_degree(heights_b, split_b), _specht_degree(heights, split)
    if d_a > d:
        return False
    limits.check("max_terms", prod(map(factorial, heights)))
    assignments = _column_assignments(heights, split, n, limits)
    limits.check("max_terms", prod(map(factorial, heights_b)))
    columns = _reference_columns(heights_b)
    d_y = (d - b.right.size) // 2
    spare = d_y - (d_a - a.right.size) // 2  # the odd count a generator can add
    first_size = b.left.size  # e_f, the reference's second tableau, is first_size + 1..n
    gens = []
    for chosen in assignments:
        odd = [e for col in chosen[split:] for e in col if e <= first_size]
        if len(odd) <= spare:
            gens.append(_column_expansion(n, chosen, 1, odd))
    if not gens:
        return False
    h_f = _column_expansion(n, columns, 1)

    def contains(codec):
        basis = list(_grown_basis(gens, codec, limits, d_y))
        return not _normal_form(codec.pack_terms(h_f.terms), basis, codec, limits)

    return _packed_run(n, order, [*gens, h_f], contains)


# ---------------------------------------------------------------------------
# covering certificates


@dataclass(frozen=True)
class CoveringCertificate:
    """Exact witness that the alternating coset sum rebuilds the full Vandermonde."""

    case: int
    a: int
    b: int
    index_a: tuple[int, ...]
    index_b1: tuple[int, ...]
    index_b2: tuple[int, ...]
    target: SparsePolynomial
    symmetrized: SparsePolynomial
    verified: bool

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "a": self.a,
            "b": self.b,
            "A": list(self.index_a),
            "B1": list(self.index_b1),
            "B2": list(self.index_b2),
            "target": str(self.target),
            "symmetrized": str(self.symmetrized),
            "verified": self.verified,
        }


def covering_certificate(
    case: int, a: int, b: int, limits: ResourceLimits = DEFAULT_LIMITS
) -> CoveringCertificate:
    """Construct and verify the symmetrization identity for covering case 3 or 4.

    Case 3 moves a boxes between columns of sizes a+b and b (ambient a+2b);
    case 4 moves them one row down, the receiving column gaining a box
    (ambient a+2b+1, first block of size b+1 and an extra square factor).
    case, a and b are read as integers: a float, even 2.0, raises ValueError.
    """
    case, a, b = _integer(case, "case"), _integer(a, "a"), _integer(b, "b")
    if case not in (3, 4):
        raise ValueError("only cases 3 and 4 carry certificates")
    if a < 1 or b < 0:
        raise ValueError("need a >= 1 and b >= 0")
    extra = case == 4
    n = a + 2 * b + extra
    set_a = tuple(range(1, a + 1))
    set_b1 = tuple(range(a + 1, a + b + extra + 1))
    set_b2 = tuple(range(a + b + extra + 1, n + 1))

    union = set_a + set_b1
    limits.check("max_cosets", comb(len(union), a))
    limits.check("max_terms", factorial(len(union)))  # the target V^2(union) has |union|! terms

    # The coset term of image_a is V^2(image_a) V^2(rest) prod_{i in image_a} R(x_i^2) [x_i^2],
    # with R(y) = prod_{j in B2} (y - x_j^2). It is the image of the A term under
    # union -> image_a + rest, which fixes B2 and so R: build the A term once; the sum of
    # its signed images is `_shuffle_sum`'s.
    # With j placed last, V^2(A + (j,)) = V^2(A) prod_{i in A} (x_i^2 - x_j^2), so the first
    # B2 variable joins A's column, and case 4's x_i^2 factors are offsets of A's entries:
    # one column expansion. Only the other B2 binomials are multiplied in, each product
    # capped before it is formed: the A term can outgrow the target.
    base = _column_expansion(n, (set_a + set_b2[:1], set_b1), 2, set_a * 2 if extra else ())
    for i in set_a:
        for j in set_b2[1:]:
            factor = SparsePolynomial.variable(n, i, 2) - SparsePolynomial.variable(n, j, 2)
            limits.check("max_terms", len(base.terms) * len(factor.terms))
            base = base * factor
    target = vandermonde_squares(n, union)
    symmetrized = _shuffle_sum(base, (set_a, set_b1))

    return CoveringCertificate(
        case, a, b, set_a, set_b1, set_b2, target, symmetrized, symmetrized == target
    )


def _shuffle_sum(base: SparsePolynomial, parts) -> SparsePolynomial:
    """sum of sgn(sigma) * sigma(base) over the shuffles sigma of parts, base alternating in each.

    A shuffle sends the concatenated parts onto their union U, each part onto
    a subset in increasing order, and fixes every other variable. Every
    permutation of U is one shuffle after one tau in G = prod_k S_{part k}, and
    base alternating in each part means sgn(tau) * tau(base) = base, so
    Alt_U(base) = |G| times the shuffle sum. In `covering_certificate`, base is
    alternating in A through its V^2(A + first entry of B2) column, since the
    case-4 x_i^2 offsets and the binomials prod (x_i^2 - x_j^2) are symmetric
    in A, and alternating in B1 through its V^2(B1) column.

    The terms of an alternating base come in G-orbits of |G| terms, each
    orbit holding one term strictly decreasing on every part, and a term with
    a repeated exponent in a part has coefficient 0. Alt_U sends each term of
    an orbit to sgn(tau) times Alt_U of its decreasing term, so Alt_U(base) is
    |G| times Alt_U of the decreasing terms: the shuffle sum is the
    antisymmetrization of only those. With one nonempty part the only shuffle
    is the identity, and the sum is base itself.
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


# covering steps are witnessed by Groebner reduction up to this n
_GROEBNER_WITNESS_MAX_N = 4


@dataclass(frozen=True)
class InclusionReport:
    included: bool
    chain: tuple[Bipartition, ...]
    verified_steps: tuple[bool, ...]

    def __bool__(self):
        return self.included


def inclusion_by_certificates(
    a: Bipartition,
    b: Bipartition,
    n: int,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> InclusionReport:
    """Exhibit the diagram's covering chain from a down to b; witness each step if n is small.

    `HasseDiagram.covering_chain` raises ValueError if a does not bidominate b.
    """
    _check_size(n, a, b)
    chain = tuple(hasse_diagram(n).covering_chain(a, b))
    verified = ()
    if n <= _GROEBNER_WITNESS_MAX_N:
        verified = tuple(
            specht_ideal_contains(upper, lower, n, "lex", limits)
            for upper, lower in zip(chain, chain[1:])
        )
    return InclusionReport(True, chain, verified)


# ---------------------------------------------------------------------------
# the conjecture harness


def radical_report(
    shape: Bipartition, n: int, limits: ResourceLimits = DEFAULT_LIMITS
) -> dict:
    """Empirical radicality evidence for a Specht ideal.

    For the reference generator f_mu of every shape mu of the same size,
    membership in the radical of I = I_shape is compared against plain ideal
    membership; a radical ideal makes the two verdicts agree on every sample.
    The report records any disagreement instead of asserting.

    `in_ideal` reduces f_mu against the deglex basis. A member is in the
    radical, as I lies in its radical. For a non-member, `in_radical` holds
    iff `_radical_witness` finds no orbit representative z at which every
    generator of the shape vanishes and some generator of mu does not. That
    search decides it:

    - Whether a Specht generator vanishes at a point depends only on which
      coordinates have equal squares and which are zero, and the generators of
      a shape are permuted, up to sign, by every permutation of the variables.
      So whether all of them vanish depends only on the point's orbit type,
      over the complex numbers as over the rationals.
    - Every orbit type has a representative in `_nonempty_classes(n)`, so
      `_vanishing_representatives` lists one point of each type in V(I).
    - The radical of I is B_n-stable, and the generators of mu are the orbit
      of f_mu up to sign, so f_mu lies in it iff every generator of mu does.
    - By the Nullstellensatz (Cox, Little and O'Shea, Ideals, Varieties, and
      Algorithms, ch. 4), a generator lies in the radical iff it vanishes on
      V(I), that is at every listed representative.

    The test suite keeps the auxiliary-variable route (Rabinowitsch), which
    decides the same question without this argument, and compares the two.
    """
    _check_size(n, shape)
    gb = buchberger(specht_generators(shape, n, limits), "deglex", limits)
    zeros = _vanishing_representatives(shape, n, limits)
    samples = []
    agreement = True
    for other in enumerate_bipartitions(n):
        heights, split = _column_heights(other)
        f = _specht_polynomial(n, _reference_columns(heights), split, limits)
        in_ideal = reduce(f, gb, limits).is_zero
        in_radical = in_ideal or _radical_witness(other, zeros, limits) is None
        samples.append(
            {"sample_shape": str(other), "in_radical": in_radical, "in_ideal": in_ideal}
        )
        agreement = agreement and (in_radical == in_ideal)
    return {"shape": str(shape), "n": n, "agreement": agreement, "samples": samples}


def _vanishing_representatives(
    shape: Bipartition, n: int, limits: ResourceLimits
) -> list[Point]:
    """The class representatives of size n at which every generator of the shape vanishes."""
    heights, split = _column_heights(shape)
    points = map(orbit_representative, _nonempty_classes(n))
    return [z for z in points if _nonvanishing_assignment(heights, split, z, limits) is None]


def _radical_witness(
    other: Bipartition, zeros, limits: ResourceLimits
) -> tuple[Point, list[tuple[int, ...]]] | None:
    """(z, assignment): the first point of zeros where a generator of other is nonzero, or None.

    The assignment is that generator's columns (`tableaux._column_assignments`).
    With zeros from `_vanishing_representatives(shape, n)`, a certificate that
    other's reference generator lies outside the radical of I_shape.
    """
    heights, split = _column_heights(other)
    for z in zeros:
        chosen = _nonvanishing_assignment(heights, split, z, limits)
        if chosen is not None:
            return z, chosen
    return None


@dataclass(frozen=True)
class UniversalGBReport:
    shape: Bipartition
    n: int
    results: tuple[tuple[str, bool], ...]
    generator_count: int

    def to_json(self) -> dict:
        return {
            "shape": str(self.shape),
            "n": self.n,
            "generator_count": self.generator_count,
            "orders": {tag: passed for tag, passed in self.results},
        }


def universal_gb_check(
    shape: Bipartition,
    n: int,
    orders,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> UniversalGBReport:
    """Buchberger's criterion, per order, for one candidate universal basis.

    The candidate set is the Specht generators of every shape that the given
    one bidominates, itself included. The report records whether that set is
    a Groebner basis in each order: findings about that set, which assert
    nothing about the ideal beyond it.

    Each base order X among the tags is checked once, and X-rev reports X's
    verdict. X-rev is X with the variables ranked in reverse, so a set G passes
    under X-rev iff w0(G) passes under X, for w0: x_i -> x_{n+1-i}. The
    candidate set is a union of S_n-orbits up to sign, so w0(G) is G up to the
    signs of its elements, which do not change whether it is a Groebner basis.
    """
    _check_size(n, shape)
    orders = list(orders)
    bases = [_parse_order(tag)[0] for tag in orders]  # an unknown tag fails before any is built
    # generators of distinct shapes are distinct polynomials (unique factorisation)
    below = hasse_diagram(n).vertices_below(shape)
    candidate = [g for other in below for g in specht_generators(other, n, limits)]
    verdicts = {
        base: _passes_buchberger_criterion(candidate, base, limits) for base in dict.fromkeys(bases)
    }
    results = tuple((tag, verdicts[base]) for tag, base in zip(orders, bases))
    return UniversalGBReport(shape, n, results, len(candidate))


def _passes_buchberger_criterion(polys, order: str, limits: ResourceLimits) -> bool:
    """True iff polys is a Groebner basis: no S-pair leaves a nonzero remainder."""
    polys = [g for g in polys if not g.is_zero]
    if not polys:
        return True

    def passes(codec):
        sugars = [g.degree for g in polys]
        remainders = _s_pair_remainders(_pack_divisors(polys, codec), sugars, codec, limits)
        return next(remainders, None) is None

    return _packed_run(polys[0].n, order, polys, passes)
