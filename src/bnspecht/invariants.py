"""Extracting Specht subideals and orbit exclusions from invariant ideals."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial, prod

from .errors import (
    DEFAULT_LIMITS,
    AmbientMismatchError,
    NoConclusionError,
    NotApplicableError,
    ResourceLimits,
)
from .partitions import Bipartition, Partition, _check_size, bidominates, conjugate, hasse_diagram
from .polynomials import (
    Monomial,
    SignedPermutation,
    SparsePolynomial,
    _antisymmetrize,
    _column_expansion,
    _integer,
    _term_subset,
    act,
)
from .tableaux import num_standard_bitableaux


@dataclass(frozen=True)
class MonomialProfile:
    """The even/odd exponent split of a monomial.

    Variables in i1 carry exponent 2*k_i with k_i >= 1; variables in i2 carry
    exponent 2*r_i + 1 with r_i >= 0. Both index sets are stored sorted.
    """

    i1: tuple[int, ...]
    i2: tuple[int, ...]
    k: tuple[int, ...]
    r: tuple[int, ...]

    @property
    def ell(self) -> int:
        return len(self.i1)

    @property
    def s(self) -> int:
        return len(self.i2)

    @property
    def d1(self) -> int:
        return sum(self.k)

    @property
    def d2(self) -> int:
        return sum(self.r)


def monomial_profile(m: Monomial) -> MonomialProfile:
    """Split the exponents of m into their even and odd parts."""
    i1, i2, k, r = [], [], [], []
    for var, exp in sorted(m.exponents.items()):
        if exp % 2 == 0:
            i1.append(var)
            k.append(exp // 2)
        else:
            i2.append(var)
            r.append((exp - 1) // 2)
    return MonomialProfile(tuple(i1), tuple(i2), tuple(k), tuple(r))


def gamma(m: Monomial, n: int) -> Bipartition:
    """Bipartition read off a monomial's profile, padded with singleton rows."""
    p = monomial_profile(m)
    pad = n - (p.ell + p.s + p.d1 + p.d2)
    if pad < 0:
        raise NotApplicableError(
            f"profile weight {p.ell + p.s + p.d1 + p.d2} of {m} exceeds n={n}"
        )
    left = tuple(sorted((x + 1 for x in p.k), reverse=True)) + (1,) * pad
    right = tuple(sorted((x + 1 for x in p.r), reverse=True))
    return Bipartition(Partition(left), Partition(right))


def gamma_star(m: Monomial, n: int) -> Bipartition:
    """Componentwise conjugate of gamma(m, n)."""
    g = gamma(m, n)
    return Bipartition(conjugate(g.left), conjugate(g.right))


def detect_specht_subideal(P: SparsePolynomial, n: int) -> list[tuple[Monomial, Bipartition]]:
    """Monomials of the top component certifying a Specht subideal of any
    invariant ideal containing P, paired with their class labels."""
    if P.n != n:
        raise AmbientMismatchError(f"polynomial in {P.n} variables, analysis at n={n}")
    if P.is_zero:
        raise ValueError("cannot analyze the zero polynomial")
    top = P.top_component()
    weight = len(top.variables())
    out = []
    for exps in sorted(top.terms, reverse=True):
        m = Monomial(exps)
        p = monomial_profile(m)
        if weight + p.d1 + p.d2 <= n:
            out.append((m, gamma_star(m, n)))
    return out


def maximal_detected(P: SparsePolynomial, n: int) -> list[Bipartition]:
    """Bidominance-maximal labels among the detections (an antichain)."""
    return _maxima(g for _, g in detect_specht_subideal(P, n))


def excluded_orbit_classes(P: SparsePolynomial, n: int) -> list[Bipartition]:
    """Classes guaranteed to miss the zero set of any invariant ideal containing P."""
    return hasse_diagram(n).vertices_below(*maximal_detected(P, n))


def _maxima(labels) -> list[Bipartition]:
    detected = set(labels)
    if not detected:
        raise NoConclusionError("no monomial of the top component qualifies")
    return sorted(
        (g for g in detected if not any(h != g and bidominates(h, g) for h in detected)),
        key=Bipartition.sort_key,
    )


@cache
def _weights(n: int) -> tuple[int, ...]:
    """Each bipartition of n's squared standard-filling count, in vertex order."""
    return tuple(num_standard_bitableaux(b) ** 2 for b in hasse_diagram(n).vertices)


def rank_bound(shape: Bipartition, n: int) -> int:
    """Sum of squared standard-filling counts over classes the shape fails to bidominate."""
    _check_size(n, shape)
    below = hasse_diagram(n).down_set(shape)
    return sum(weight for i, weight in enumerate(_weights(n)) if not below >> i & 1)


def detection_report(P: SparsePolynomial, n: int) -> dict:
    """JSON-ready summary of the detection, exclusion and rank-bound analysis."""
    detected = dict(detect_specht_subideal(P, n))
    monomials = []
    for exps in sorted(P.top_component().terms, reverse=True):
        m = Monomial(exps)
        entry = {"monomial": str(m), "applicable": m in detected}
        if m in detected:
            entry["gamma"] = str(gamma(m, n))
            entry["gamma_star"] = str(detected[m])
        monomials.append(entry)
    report = {"polynomial": str(P), "n": n, "monomials": monomials}
    try:
        maxima = _maxima(detected.values())
        report["maximal_gamma_star"] = [str(g) for g in maxima]
        report["excluded_classes"] = [str(c) for c in hasse_diagram(n).vertices_below(*maxima)]
        report["rank_bound"] = min(rank_bound(g, n) for g in maxima)
    except NoConclusionError:
        report["maximal_gamma_star"] = []
        report["excluded_classes"] = []
        report["rank_bound"] = None
    return report


# ---------------------------------------------------------------------------
# the symmetrization identity behind the detection theorem


def verify_symmetrization(
    P: SparsePolynomial,
    m: Monomial,
    index_sets,
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> bool:
    """Check the alternating-sum identity producing a Specht generator from P.

    The fresh index sets pair off with the variables of m (even-exponent ones
    first); set i must have k_i (resp. r_i) elements disjoint from everything
    else. The sign-averaged P is multiplied by the squared Vandermondes of the
    fresh sets and their odd variables, then alternately symmetrized over each
    block J_i = {i-th variable of m} + set i. The result must be the
    k_1!...r_s!-multiple of the Specht generator on the blocks, scaled by the
    coefficient of m.
    """
    n = P.n
    if m.n != n:
        raise AmbientMismatchError(f"monomial in {m.n} variables, polynomial in {n}")
    profile = monomial_profile(m)
    bases = profile.i1 + profile.i2
    sizes = profile.k + profile.r
    index_sets = [tuple(sorted([_integer(i, "variable index") for i in s])) for s in index_sets]
    if len(index_sets) != len(bases):
        raise ValueError(f"expected {len(bases)} index sets, got {len(index_sets)}")
    flat = [i for s in index_sets for i in s]
    if len(set(flat)) != len(flat) or set(flat) & set(bases):
        raise ValueError("index sets must be disjoint from each other and from m")
    if any(not 1 <= i <= n for i in flat):
        raise ValueError("index sets must live in the ambient variables")
    if any(len(s) != size for s, size in zip(index_sets, sizes)):
        raise ValueError(f"set sizes must match the exponent profile {sizes}")
    forbidden = P.top_component().variables()
    if any(i in forbidden for i in flat):
        raise ValueError("index sets must avoid the variables of the top component")

    # averaging P with its sign flip in x_i keeps the terms whose x_i exponent
    # is even (i in i1), or odd when the flip is subtracted (i in i2)
    parities = [(i - 1, 0) for i in profile.i1] + [(i - 1, 1) for i in profile.i2]
    cleaned = _term_subset(P, lambda e: all(e[i] % 2 == parity for i, parity in parities))

    odd_fresh = [i for s in index_sets[profile.ell :] for i in s]
    base_poly = cleaned * _column_expansion(n, index_sets, 2, odd_fresh)

    blocks = [(base,) + s for base, s in zip(bases, index_sets)]
    limits.check("max_cosets", prod(factorial(len(b)) for b in blocks))
    total = _antisymmetrize(base_poly, blocks)

    factor = prod(factorial(x) for x in sizes)
    odd_blocks = [i for b in blocks[profile.ell :] for i in b]
    expected = _column_expansion(n, blocks, 2, odd_blocks)
    return total == expected.scale(factor * cleaned.coefficient(m.exps))


# ---------------------------------------------------------------------------
# building invariant ideals from a single polynomial


def bn_orbit(
    P: SparsePolynomial, limits: ResourceLimits = DEFAULT_LIMITS
) -> list[SparsePolynomial]:
    """The full signed-permutation orbit of P, deduplicated, in canonical order.

    The orbit is the closure of {P} under the generators of B_n: the adjacent
    transpositions and the sign flip of x1. Each orbit element is acted on
    once per generator. The orbit can reach 2^n * n! elements; its size is
    held to `limits.max_enumeration` as it grows.
    """
    n = P.n
    generators = [SignedPermutation.sign_flip(n, 1)] if n else []
    generators += [
        SignedPermutation.from_permutation(
            tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, n + 1))
        )
        for i in range(1, n)
    ]
    out = [P]
    seen = {P}
    for q in out:
        for g in generators:
            r = act(g, q)
            if r not in seen:
                seen.add(r)
                out.append(r)
                limits.check("max_enumeration", len(out))
    out.sort(key=lambda q: sorted(q.terms.items()))
    return out
