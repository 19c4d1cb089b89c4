"""The tuple-keyed Groebner kernel that the packed kernel replaced, kept as a test-only reference.

`_normal_form` and `_s_polynomial` are the library's former kernel, moved
here. `reference_buchberger` runs Buchberger's algorithm on them with every
S-pair reduced and no criterion. The kernel orders monomials by
`reference_order_key`, the tests' one table of the six orders, written out
independently of the library's packed codec that it checks. The `packed_*`
adapters run the library's packed kernel on `SparsePolynomial`s, so tests
can call either route with the same arguments.
"""

import itertools
from heapq import heapify, heappop, heappush
from operator import add, ge, sub

from bnspecht import groebner
from bnspecht.errors import DEFAULT_LIMITS
from bnspecht.groebner import GroebnerBasis
from bnspecht.polynomials import (
    SparsePolynomial,
    _exact_quotient,
    _field_width,
    _largest_exponent,
    _monomial_codec,
)


def reference_order_key(tag):
    """The nested sort key of each order tag; larger key = larger monomial.

    ValueError for a tag outside the six orders.
    """
    base, _, suffix = tag.partition("-")
    if base not in ("lex", "deglex", "degrevlex") or suffix not in ("", "rev"):
        raise ValueError(f"unknown monomial order {tag!r}")

    def key(exps):
        e = tuple(reversed(exps)) if suffix == "rev" else exps
        if base == "lex":
            return e
        if base == "deglex":
            return (sum(e), e)
        return (sum(e), tuple(-x for x in reversed(e)))

    return key


def _negated(k):
    return -k if type(k) is int else tuple(map(_negated, k))


def leading(g: SparsePolynomial, order: str):
    """The exponents of g's largest term under order."""
    return max(g.terms, key=reference_order_key(order))


def monic(g: SparsePolynomial, order: str) -> SparsePolynomial:
    """The nonzero g scaled so that its leading coefficient under order is 1."""
    return g.scale(_exact_quotient(1, g.terms[leading(g, order)]))


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
    key = reference_order_key(order)

    def heap_key(e):  # the smallest heap key is the largest monomial
        return _negated(key(e))

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
    lf, lg = leading(f, order), leading(g, order)
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


def _leads(polys, order):
    return [leading(g, order) for g in polys]


def reference_reduce(p: SparsePolynomial, gb: GroebnerBasis) -> SparsePolynomial:
    basis = [g for g in gb.generators if not g.is_zero]
    return _normal_form(p, basis, _leads(basis, gb.order), gb.order) if basis else p


def reference_passes(polys, order: str) -> bool:
    """Buchberger's criterion with every S-pair reduced on the tuple kernel."""
    polys = [g for g in polys if not g.is_zero]
    leads = _leads(polys, order)
    return all(
        _normal_form(_s_polynomial(f, g, order), polys, leads, order).is_zero
        for f, g in itertools.combinations(polys, 2)
    )


class ReferenceTooLarge(Exception):
    """The criterion-free reference grew past its basis cap."""


def reference_buchberger(gens, order: str, max_basis: int = 20) -> GroebnerBasis:
    """The reduced basis from Buchberger's algorithm on the tuple kernel, with no pair pruned.

    Every S-pair costs a reduction, so the unreduced basis is capped at max_basis.
    """
    basis = [monic(g, order) for g in gens if not g.is_zero]
    if not basis:
        return GroebnerBasis((), order, 0)
    key = reference_order_key(order)

    def lcm_key(pair):
        i, j = pair
        lcm = tuple(map(max, leading(basis[i], order), leading(basis[j], order)))
        return sum(lcm), key(lcm)

    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        pairs.sort(key=lcm_key, reverse=True)
        i, j = pairs.pop()  # the pair with the smallest lcm, as the normal strategy takes it
        s = _normal_form(
            _s_polynomial(basis[i], basis[j], order), basis, _leads(basis, order), order
        )
        if not s.is_zero:
            if len(basis) == max_basis:
                raise ReferenceTooLarge(len(basis))
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(monic(s, order))
    minimal = []
    for g in sorted(basis, key=lambda g: key(leading(g, order))):
        lead = leading(g, order)
        if not any(all(map(ge, lead, leading(h, order))) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(monic(_normal_form(g, others, _leads(others, order), order), order))
    reduced.sort(key=lambda g: key(leading(g, order)), reverse=True)
    return GroebnerBasis(tuple(reduced), order, basis[0].n)


def _codec(polys, order):
    polys = list(polys)
    return _monomial_codec(polys[0].n, order, _field_width(_largest_exponent(polys)))


def packed_normal_forms(polys, basis, order: str):
    """The packed kernel's remainders of polys on division by basis, packed once; lazily."""
    polys = list(polys)
    codec = _codec([*polys, *basis], order)
    divisors = groebner._pack_divisors(basis, codec)
    for p in polys:
        remainder = groebner._normal_form(codec.pack_terms(p.terms), divisors, codec, DEFAULT_LIMITS)
        yield codec.unpack_polynomial(remainder.items())


def packed_normal_form(p: SparsePolynomial, basis, order: str) -> SparsePolynomial:
    """The packed kernel's remainder of p on division by basis, in basis order."""
    return next(packed_normal_forms([p], basis, order))


def packed_s_polynomial(f: SparsePolynomial, g: SparsePolynomial, order: str) -> dict:
    """The packed kernel's S-polynomial of f and g, unpacked but not passed to the constructor."""
    codec = _codec([f, g], order)
    lcm = tuple(map(max, f.leading_exponents(order), g.leading_exponents(order)))
    pf, pg = groebner._pack_divisors([f, g], codec)
    terms = groebner._s_polynomial(pf, pg, codec.pack(lcm))
    return {codec.unpack(u): c for u, c in terms.items()}
