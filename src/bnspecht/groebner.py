"""Buchberger machinery, Specht-ideal inclusions and covering certificates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import comb, factorial
from operator import add, ge, sub

from .errors import DEFAULT_LIMITS, AmbientMismatchError, ResourceLimits, SizeMismatchError
from .partitions import Bipartition, bidominates, enumerate_bipartitions, hasse_diagram
from .polynomials import (
    Exponents,
    SparsePolynomial,
    _alternating_sum,
    _column_expansion,
    _descending_key,
    _exact_quotient,
    _parse_order,
    order_key,
    vandermonde_squares,
)
from .tableaux import reference_bitableau, specht_generators, specht_polynomial_bn


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
    def _divisors(self) -> tuple[tuple[SparsePolynomial, ...], tuple[Exponents, ...]]:
        """The nonzero generators and their leading exponents, the divisors `reduce` uses."""
        basis = tuple(g for g in self.generators if not g.is_zero)
        return basis, tuple(_leads(basis, self.order))


def reduce(p: SparsePolynomial, gb: GroebnerBasis) -> SparsePolynomial:
    """Normal form of p modulo the basis; p itself modulo the zero ideal (no generators)."""
    if not gb.generators:
        return p
    if p.n != gb.n:
        raise AmbientMismatchError(f"polynomial in {p.n} variables, basis in {gb.n}")
    basis, leads = gb._divisors
    return _normal_form(p, basis, leads, gb.order)


def _leads(polys, order: str) -> list[Exponents]:
    return [g.leading_exponents(order) for g in polys]


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(ge, b, a))


def _normal_form(p: SparsePolynomial, basis, leads, order: str) -> SparsePolynomial:
    """Remainder of p on division by basis, whose leading exponents are leads.

    The largest live term is popped from a heap; a term cancelled while still
    queued is skipped when it surfaces. Reduction only adds terms below the
    popped one, so each term is settled once. This is the one loop that drops
    a cancelled term itself rather than leaving it to the constructor: `work`
    holds only live terms, a term is pushed only when it is absent from
    `work`, and one found absent when it surfaces is skipped, so a zero kept
    in `work` would be popped and reduced for nothing.
    """
    heap_key = _descending_key(order)
    divisors = list(zip(leads, basis))
    work = dict(p.terms)
    heap = [(heap_key(e), e) for e in work]
    heapify(heap)
    remainder_terms: dict = {}
    while heap:
        exps = heappop(heap)[1]
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for lead, g in divisors:
            if all(map(ge, exps, lead)):
                quot = tuple(map(sub, exps, lead))
                factor = _exact_quotient(coeff, g.terms[lead])
                for e, c in g.terms.items():
                    if e == lead:
                        continue
                    target = tuple(map(add, quot, e))
                    acc = work.get(target)
                    if acc is None:
                        work[target] = -factor * c
                        heappush(heap, (heap_key(target), target))
                    else:
                        acc -= factor * c
                        if acc:
                            work[target] = acc
                        else:
                            del work[target]
                break
        else:
            remainder_terms[exps] = coeff
    return SparsePolynomial(p.n, remainder_terms)


def _s_polynomial(f: SparsePolynomial, g: SparsePolynomial, order: str) -> SparsePolynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, built term by term; the leading terms cancel."""
    lf, lg = f.leading_exponents(order), g.leading_exponents(order)
    lcm = tuple(map(max, lf, lg))
    terms: dict = {}
    for h, lead, sign in ((f, lf, 1), (g, lg, -1)):
        shift = tuple(map(sub, lcm, lead))
        factor = _exact_quotient(sign, h.terms[lead])
        for e, c in h.terms.items():
            if e != lead:
                target = tuple(map(add, shift, e))
                terms[target] = terms.get(target, 0) + factor * c
    return SparsePolynomial(f.n, terms)


def _s_pair_remainders(basis: list, order: str, limits: ResourceLimits):
    """Yield the nonzero remainders of the S-pairs of basis, smallest lcm first.

    Pairs are queued by (degree of the lcm, order key of the lcm, (i, j)), the
    normal strategy with degree as the sugar tie-break. A caller that appends
    to basis before resuming has the new elements admitted too, and the
    remainders that follow are taken modulo the grown basis. When the
    generator is exhausted, basis is a Groebner basis.

    Pairs whose S-polynomial is known to reduce to zero are pruned once, when
    an element h is admitted, by the update of Gebauer and Moeller (J. Symbolic
    Comput. 6, 1988; Becker and Weispfenning, Groebner Bases, 1993, p. 230):

    - B_k: a queued pair (i, j) dies if lead(h) divides its lcm and that lcm
      differs from both lcm(i, h) and lcm(j, h).
    - M and F: h pairs with every active element i. Of these pairs only those
      whose lcm is minimal under divisibility are kept, one per lcm. A pair
      with coprime leads reduces to zero (Buchberger's first criterion): it
      still counts as a divisor of the other lcms, and it is not queued.
    - Active set: the elements whose lead lead(h) divides form no further
      pairs. They stay in basis as reducers.

    The pop loop then only skips the pairs that died.
    """
    key = order_key(order)
    leads: list[Exponents] = []
    active: list[int] = []  # the elements that still form pairs
    live: dict[tuple[int, int], Exponents] = {}  # queued pairs not pruned, with their lcm
    queue: list = []

    def admit_new_elements():
        for h in range(len(leads), len(basis)):
            lh = basis[h].leading_exponents(order)
            for (i, j), lcm in list(live.items()):
                if (
                    all(map(ge, lcm, lh))
                    and lcm != tuple(map(max, leads[i], lh))
                    and lcm != tuple(map(max, leads[j], lh))
                ):
                    del live[i, j]
            degree = sum(lh)
            new = []
            for i in active:
                lcm = tuple(map(max, leads[i], lh))
                d = sum(lcm)
                new.append((d, d != sum(leads[i]) + degree, i, lcm))
            new.sort()  # a divisor sorts before its multiples, a coprime pair before its equals
            minimal: list[Exponents] = []
            for d, overlapping, i, lcm in new:
                if any(all(map(ge, lcm, m)) for m in minimal):
                    continue
                minimal.append(lcm)
                if overlapping:
                    live[i, h] = lcm
                    heappush(queue, (d, key(lcm), (i, h)))
            active[:] = [i for i in active if not all(map(ge, leads[i], lh))]
            active.append(h)
            leads.append(lh)

    admit_new_elements()
    while queue:
        i, j = heappop(queue)[2]
        if live.pop((i, j), None) is None:
            continue  # pruned after it was queued
        s = _normal_form(_s_polynomial(basis[i], basis[j], order), basis, leads, order)
        limits.check_terms(len(s.terms))
        if not s.is_zero:
            yield s
            admit_new_elements()


def buchberger(
    gens, order: str = "lex", limits: ResourceLimits = DEFAULT_LIMITS
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return GroebnerBasis((), order, 0)
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise AmbientMismatchError("generators live in different rings")

    basis: list[SparsePolynomial] = []
    leads: list[Exponents] = []
    for g in gens:
        g = _normal_form(g, basis, leads, order)
        if not g.is_zero:
            basis.append(g.monic(order))
            leads.append(basis[-1].leading_exponents(order))

    for s in _s_pair_remainders(basis, order, limits):
        basis.append(s.monic(order))
        limits.check_basis(len(basis))

    return GroebnerBasis(tuple(_reduce_basis(basis, order)), order, n)


def _reduce_basis(basis, order: str) -> list[SparsePolynomial]:
    key = order_key(order)
    # minimal: drop generators whose lead is divisible by another's
    basis = sorted(basis, key=lambda g: key(g.leading_exponents(order)))
    minimal = []
    for g in basis:
        lead = g.leading_exponents(order)
        if any(_divides(h.leading_exponents(order), lead) for h in minimal):
            continue
        minimal.append(g)
    # reduced: take each generator's normal form against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        nf = _normal_form(g, others, _leads(others, order), order)
        if not nf.is_zero:
            reduced.append(nf.monic(order))
    return sorted(reduced, key=lambda g: key(g.leading_exponents(order)), reverse=True)


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
    of b's reference polynomial, so reducing that one polynomial decides it.
    """
    if a.size != n or b.size != n:
        raise SizeMismatchError(f"shapes must have size {n}")
    gb = specht_ideal_basis(a, n, order, limits)
    return reduce(specht_polynomial_bn(reference_bitableau(b, n), limits), gb).is_zero


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
    """
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
    limits.check_cosets(comb(len(union), a))
    limits.check_terms(factorial(len(union)))  # the target V^2(union) has |union|! terms

    # The coset term of image_a is V^2(image_a) V^2(rest) prod_{i in image_a} R(x_i^2) [x_i^2],
    # with R(y) = prod_{j in B2} (y - x_j^2). It is the image of the A term under
    # union -> image_a + rest, which fixes B2 and so R: build the A term once, then relabel.
    # Each product is capped before it is formed: the A term can outgrow the target.
    base = _column_expansion(n, (set_a, set_b1), 2)
    for i in set_a:
        xi2 = SparsePolynomial.variable(n, i, 2)
        factors = [xi2 - SparsePolynomial.variable(n, j, 2) for j in set_b2] + [xi2] * extra
        for factor in factors:
            limits.check_terms(len(base.terms) * len(factor.terms))
            base = base * factor
    target = vandermonde_squares(n, union)
    symmetrized = _alternating_sum(
        base,
        union,
        (image_a + tuple(i for i in union if i not in image_a)
         for image_a in itertools.combinations(union, a)),
    )

    return CoveringCertificate(
        case, a, b, set_a, set_b1, set_b2, target, symmetrized, symmetrized == target
    )


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
    """Exhibit a covering chain from b up to a; witness each step if n is small."""
    if a.size != n or b.size != n:
        raise SizeMismatchError(f"shapes must have size {n}")
    if not bidominates(a, b):
        raise ValueError(f"{a} does not bidominate {b}")
    chain = tuple(_covering_chain(a, b))
    verified = ()
    if n <= _GROEBNER_WITNESS_MAX_N:
        verified = tuple(
            specht_ideal_contains(upper, lower, n, "lex", limits)
            for upper, lower in zip(chain, chain[1:])
        )
    return InclusionReport(True, chain, verified)


def _covering_chain(a: Bipartition, b: Bipartition) -> list[Bipartition]:
    """A path a = c_0 > c_1 > ... > c_k = b; each step is the first cover whose down-set holds b."""
    diagram = hasse_diagram(a.size)
    target, chain = diagram.index(b), [diagram.index(a)]
    while chain[-1] != target:
        chain.append(next(c for c in diagram._below[chain[-1]] if diagram._down[c] >> target & 1))
    return [diagram.vertices[i] for i in chain]


# ---------------------------------------------------------------------------
# the conjecture harness


def radical_membership(
    f: SparsePolynomial, gens, limits: ResourceLimits = DEFAULT_LIMITS
) -> bool:
    """True iff f vanishes on the zero set of gens (auxiliary-variable trick)."""
    gens = list(gens)
    if not gens:
        return f.is_zero
    n = gens[0].n
    if f.n != n or any(g.n != n for g in gens):
        raise AmbientMismatchError("polynomials live in different rings")
    lifted = [g.extend(n + 1) for g in gens]
    y = SparsePolynomial.variable(n + 1, n + 1)
    lifted.append(SparsePolynomial.constant(n + 1, 1) - y * f.extend(n + 1))
    gb = buchberger(lifted, "deglex", limits)
    return gb.is_trivial


def radical_report(
    shape: Bipartition, n: int, limits: ResourceLimits = DEFAULT_LIMITS
) -> dict:
    """Empirical radicality evidence for a Specht ideal.

    For the reference generator of every shape of the same size, membership
    in the radical (auxiliary-variable criterion) is compared against plain
    ideal membership; a radical ideal makes the two verdicts agree on every
    sample. The report records any disagreement instead of asserting.
    """
    if shape.size != n:
        raise SizeMismatchError(f"shape {shape} has size {shape.size}, expected {n}")
    gens = specht_generators(shape, n, limits)
    gb = buchberger(gens, "deglex", limits)
    samples = []
    agreement = True
    for other in enumerate_bipartitions(n):
        f = specht_polynomial_bn(reference_bitableau(other, n), limits)
        in_radical = radical_membership(f, gens, limits)
        in_ideal = reduce(f, gb).is_zero
        samples.append(
            {"sample_shape": str(other), "in_radical": in_radical, "in_ideal": in_ideal}
        )
        agreement = agreement and (in_radical == in_ideal)
    return {"shape": str(shape), "n": n, "agreement": agreement, "samples": samples}


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
    """
    if shape.size != n:
        raise SizeMismatchError(f"shape {shape} has size {shape.size}, expected {n}")
    orders = list(orders)
    for tag in orders:
        _parse_order(tag)  # an unknown tag fails before any generator is built
    diagram = hasse_diagram(n)
    below = diagram.down_set(shape)
    # generators of distinct shapes are distinct polynomials (unique factorisation)
    candidate = [
        g
        for i, other in enumerate(diagram.vertices)
        if below >> i & 1
        for g in specht_generators(other, n, limits)
    ]
    results = tuple((tag, _passes_buchberger_criterion(candidate, tag, limits)) for tag in orders)
    return UniversalGBReport(shape, n, results, len(candidate))


def _passes_buchberger_criterion(polys, order: str, limits: ResourceLimits) -> bool:
    """True iff polys is a Groebner basis: no S-pair leaves a nonzero remainder."""
    remainders = _s_pair_remainders([g for g in polys if not g.is_zero], order, limits)
    return next(remainders, None) is None
