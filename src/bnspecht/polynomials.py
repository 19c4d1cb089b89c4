"""Exact sparse multivariate polynomials over the rationals.

Terms are dicts mapping exponent tuples (length = ambient variable count)
to nonzero coefficients: an int when the value is integral, a Fraction
otherwise (see `_normalize`). Variables are 1-based in the external notation
(x1, x2, ...) and lex always means x1 > x2 > ... > xn unless an order tag
says otherwise. `_MonomialCodec` is the one definition of the six monomial
orders of `ORDER_TAGS`: leading terms and every Groebner computation compare
monomials by its packed keys.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product, repeat, starmap
from operator import add, index, itemgetter, mul

from .errors import DEFAULT_LIMITS, AmbientMismatchError, ParseError

Exponents = tuple[int, ...]
Coefficient = int | Fraction


def _normalize(value) -> Coefficient:
    """value exactly: an int when integral, else a Fraction; coefficients and points alike.

    A float is taken only when its binary value is the decimal it prints as
    (0.5, 2.0). Any other float (0.1, 0.3 - 0.2) is rejected, since it could
    mean either number.
    """
    if type(value) is int:
        return value
    exact = Fraction(value)
    if isinstance(value, float) and exact != Fraction(float.__repr__(value)):
        raise ValueError(f"float {value!r} is not exactly the decimal it prints as")
    return exact.numerator if exact.denominator == 1 else exact


def _clean(terms: dict) -> dict:
    """terms of int or Fraction coefficients without the zero ones, each normalised."""
    return {e: c if type(c) is int else _normalize(c) for e, c in terms.items() if c}


def _exact_quotient(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b exactly: a // b when b divides a, else a normalised Fraction.

    Plain int / int is a float, which must never become a coefficient.
    """
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _normalize(Fraction(a, b))


@dataclass(frozen=True)
class Monomial:
    """A power product; zero exponents are allowed in storage but not printed."""

    exps: Exponents

    def __post_init__(self):
        object.__setattr__(self, "exps", _exponents(self.exps))

    @property
    def n(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def exponents(self) -> dict[int, int]:
        """Map from 1-based variable index to positive exponent."""
        return {i + 1: e for i, e in enumerate(self.exps) if e}

    def divides(self, other: "Monomial") -> bool:
        if len(self.exps) != len(other.exps):
            raise AmbientMismatchError(f"ambient mismatch: {len(self.exps)} vs {len(other.exps)}")
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __str__(self):
        return _monomial_text(self.exps)


def _exponents(exps) -> Exponents:
    """exps as a tuple of ints read as `_integer` reads them; ValueError if one is negative."""
    exps = tuple([_integer(e, "exponent") for e in exps])
    if min(exps, default=0) < 0:
        raise ValueError(f"negative exponent in {_monomial_text(exps)}")
    return exps


def _monomial_text(exps: Exponents) -> str:
    """x1^2*x3 for (2, 0, 1), and 1 when every exponent is zero."""
    if not any(exps):
        return "1"
    return "*".join([f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}" for i, e in enumerate(exps) if e])


# ---------------------------------------------------------------------------
# monomial orders

_BASE_ORDERS = ("lex", "deglex", "degrevlex")
ORDER_TAGS = _BASE_ORDERS + tuple(f"{t}-rev" for t in _BASE_ORDERS)


def _parse_order(tag: str) -> tuple[str, bool]:
    base, _, suffix = tag.partition("-")
    if base not in _BASE_ORDERS or (suffix and suffix != "rev"):
        raise ValueError(f"unknown monomial order {tag!r}; choose from {ORDER_TAGS}")
    return base, suffix == "rev"


class _MonomialCodec:
    """Exponent tuples of one (n, order) packed into Python ints: the six orders' one definition.

    Each variable gets a field of `width` bits, F = sum_i e_i << shift_i, with
    the variable that the order compares first in the most significant field.
    The top bit of every field is a guard bit, clear while the exponent is
    below 2**(width - 1). Graded orders put the total degree D above the
    K = n * width field bits. The order key, larger for a larger monomial, is
    F for lex, D * 2**K + F for deglex and D * 2**K - F for degrevlex (ties go
    to the smaller last-compared exponent). Every key is linear in the
    exponents (Monagan and Pearce, CASC 2007), so

    - a packed monomial u is the descending key -key(e): a min-heap of plain
      ints pops the largest monomial first, and a product is one int add;
    - the exponent form `sign * u` holds +F in its low K bits (`sign` is +1
      for degrevlex, -1 otherwise), so lead divides m iff
      `not sign * (m - lead) & guard`, and m has outgrown its fields iff
      `sign * m & guard`.
    """

    __slots__ = ("width", "sign", "guard", "low", "_weights", "_shifts", "_degree_shift")

    def __init__(self, n: int, order: str, width: int):
        base, reverse_vars = _parse_order(order)
        first_on_top = (base == "degrevlex") == reverse_vars  # x1 is the most significant field
        self.width = width
        self.sign = 1 if base == "degrevlex" else -1
        self._shifts = [width * (n - 1 - i if first_on_top else i) for i in range(n)]
        self.guard = sum(1 << (s + width - 1) for s in self._shifts)
        self.low = (1 << n * width) - 1  # the field bits: F = exponent form & low
        degree = 0 if base == "lex" else self.low + 1
        self._degree_shift = None if base == "lex" else n * width
        # the packed unit monomials; packing is a dot product with them
        self._weights = [self.sign * (1 << s) - degree for s in self._shifts]

    def pack(self, exps: Exponents) -> int:
        return sum(map(mul, exps, self._weights))

    def unpack(self, u: int) -> Exponents:
        f, field = self.sign * u, (1 << self.width) - 1
        return tuple([f >> s & field for s in self._shifts])

    def degree(self, u: int) -> int:
        """Total degree of the packed monomial u: its degree field, or the sum of its fields."""
        f = self.sign * u
        if self._degree_shift is not None:
            return -self.sign * (f >> self._degree_shift)
        field = (1 << self.width) - 1
        return sum([f >> s & field for s in self._shifts])

    def pack_terms(self, terms: dict) -> dict:
        pack = self.pack
        return {pack(e): c for e, c in terms.items()}

    def unpack_polynomial(self, terms) -> "SparsePolynomial":
        """The polynomial of distinct packed (monomial, coefficient) pairs; see `_of_clean`."""
        terms = _clean({self.unpack(u): c for u, c in terms})
        return SparsePolynomial._of_clean(len(self._shifts), terms)

    def lcm(self, a: int, b: int) -> int:
        """The per-field max of two F: a field of (a | guard) - b keeps its guard bit iff a >= b."""
        keep = ((a | self.guard) - b) & self.guard
        keep -= keep >> (self.width - 1)  # each kept guard bit becomes a mask of its field
        return a & keep | b & ~keep


@functools.cache
def _monomial_codec(n: int, order: str, width: int) -> _MonomialCodec:
    return _MonomialCodec(n, order, width)


def _field_width(largest_exponent: int) -> int:
    """The narrowest field width, 8 bits doubled as needed, that holds 8 times largest_exponent."""
    width = 8
    while largest_exponent >> (width - 4):
        width *= 2
    return width


def _largest_exponent(polys) -> int:
    """The largest exponent in any term of polys, 0 if there is none: what `_field_width` reads."""
    flat = itertools.chain.from_iterable
    return max(flat(flat(p.terms for p in polys)), default=0)


class SparsePolynomial:
    """Immutable polynomial with exact rational coefficients, each an int or a Fraction."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: dict[Exponents, Coefficient] | None = None):
        checked: dict[Exponents, Coefficient] = {}  # every key, zero coefficient or not
        for exps, coeff in (terms or {}).items():
            if len(exps) != n:
                raise AmbientMismatchError(f"exponent tuple {exps} does not match n={n}")
            exps = _exponents(exps)  # an __index__ key can read as another key's ints
            checked[exps] = checked.get(exps, 0) + _normalize(coeff)
        self.n, self.terms, self._hash = n, _clean(checked), None

    @staticmethod
    def _of_clean(n: int, terms: dict[Exponents, Coefficient]) -> "SparsePolynomial":
        """The polynomial owning terms, which is neither copied nor checked.

        Only for terms clean by construction: distinct tuples of n non-negative
        ints, with nonzero int or non-integral Fraction coefficients. Its
        callers build keys from valid keys, so none is checked: `__add__`,
        `__mul__`, `scale` and `_MonomialCodec.unpack_polynomial` after
        `_clean`, `__neg__`, `_scatter` (for `_column_expansion`,
        `specht_generators` and `_antisymmetrize`) and `act`. Every other
        construction goes through `__init__`.
        """
        p = object.__new__(SparsePolynomial)
        p.n, p.terms, p._hash = n, terms, None
        return p

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "SparsePolynomial":
        return SparsePolynomial(n, {})

    @staticmethod
    def constant(n: int, value) -> "SparsePolynomial":
        return SparsePolynomial(n, {(0,) * n: value})

    @staticmethod
    def variable(n: int, i: int, power: int = 1) -> "SparsePolynomial":
        i = _check_index(n, i)
        power = _integer(power, "exponent")
        if power < 0:
            raise ValueError(f"negative exponent {power}")
        exps = tuple(power if j == i - 1 else 0 for j in range(n))
        return SparsePolynomial(n, {exps: 1})

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "SparsePolynomial"):
        if self.n != other.n:
            raise AmbientMismatchError(f"ambient mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.n, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return SparsePolynomial._of_clean(self.n, _clean(terms))

    def __neg__(self):
        return SparsePolynomial._of_clean(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms: dict[Exponents, Coefficient] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exps = tuple(map(add, ea, eb))
                terms[exps] = terms.get(exps, 0) + ca * cb
        return SparsePolynomial._of_clean(self.n, _clean(terms))

    __rmul__ = __mul__

    def scale(self, value) -> "SparsePolynomial":
        value = _normalize(value)
        terms = {e: c * value for e, c in self.terms.items()}
        return SparsePolynomial._of_clean(self.n, _clean(terms))

    def __pow__(self, k: int):
        """Power by repeated squaring; negative and non-integer exponents are rejected.

        Each product's count of term pairs, len(a) * len(b), is held to
        `max_terms` before the product is formed.
        """
        k = _integer(k, "exponent")
        if k < 0:
            raise ValueError(f"negative exponent {k}")

        def times(a: SparsePolynomial, b: SparsePolynomial) -> SparsePolynomial:
            DEFAULT_LIMITS.check("max_terms", len(a.terms) * len(b.terms))
            return a * b

        result = SparsePolynomial.constant(self.n, 1)
        square = self
        while k:
            if k & 1:
                result = times(result, square)
            k >>= 1
            if k:
                square = times(square, square)
        return result

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def leading_exponents(self, tag: str = "lex") -> Exponents:
        """The exponents of the largest term under the order tag: the smallest packed key."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        codec = _monomial_codec(self.n, tag, _field_width(_largest_exponent((self,))))
        return min(self.terms, key=codec.pack)

    def leading_coefficient(self, tag: str = "lex") -> Coefficient:
        return self.terms[self.leading_exponents(tag)]

    def monic(self, tag: str = "lex") -> "SparsePolynomial":
        if not self.terms:
            return self
        return self.scale(_exact_quotient(1, self.leading_coefficient(tag)))

    def sign_normalized(self) -> "SparsePolynomial":
        """Positive lex-leading coefficient; canonical representative of {p, -p}."""
        if not self.terms or self.leading_coefficient("lex") > 0:
            return self
        return -self

    def top_component(self) -> "SparsePolynomial":
        """The homogeneous component of highest total degree."""
        d = self.degree
        return SparsePolynomial(self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def coefficient(self, exps: Exponents) -> Coefficient:
        return self.terms.get(tuple(exps), 0)

    def variables(self) -> set[int]:
        """1-based indices of variables actually appearing."""
        return {i + 1 for e in self.terms for i, x in enumerate(e) if x}

    # -- substitutions and evaluation -----------------------------------------

    def substitute_squares(self) -> "SparsePolynomial":
        return SparsePolynomial(self.n, {tuple(2 * x for x in e): c for e, c in self.terms.items()})

    def evaluate(self, point) -> Coefficient:
        coords = [_normalize(z) for z in point]
        if len(coords) != self.n:
            raise AmbientMismatchError(f"point has dimension {len(coords)}, expected {self.n}")
        total = 0
        for exps, coeff in self.terms.items():
            value = coeff
            for z, e in zip(coords, exps):
                if e:
                    value *= z**e
            total += value
        return _normalize(total)

    def extend(self, n: int) -> "SparsePolynomial":
        """Embed into a ring with more variables (new ones appended)."""
        if n < self.n:
            raise AmbientMismatchError("cannot shrink the ambient ring")
        pad = (0,) * (n - self.n)
        return SparsePolynomial(n, {e + pad: c for e, c in self.terms.items()})

    # -- text form -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = _monomial_text(exps)
            if mono == "1":
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        head = pieces[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + pieces[1:])

    def __repr__(self):
        return f"SparsePolynomial({self.n}, {self})"


# ---------------------------------------------------------------------------
# named constructions


def _permutation_sign(domain, image) -> int:
    """Sign of the permutation sending domain[i] to image[i] (same entries)."""
    position = {v: i for i, v in enumerate(domain)}
    seq = [position[v] for v in image]
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@functools.cache
def _permutation_signs(h: int) -> tuple[int, ...]:
    """Signs of the permutations of range(h), in itertools.permutations order."""
    base = tuple(range(h))
    return tuple(_permutation_sign(base, p) for p in permutations(base))


def _column_product(columns, head=()) -> tuple[list[Exponents], list[int]]:
    """prod over columns of the column alternants, in slot order: lists (exponents, signs).

    Every term starts with the fixed exponents head, one per slot, and each
    column then adds h slots. A column is a pair (powers, offsets) of h-tuples,
    the powers strictly decreasing, and stands for the alternant
    sum_pi sgn(pi) prod_b y_b^(powers[pi(b)] + offsets[b]) in its slots
    y_1..y_h: the permutations of its powers, zipped with
    `_permutation_signs(h)`. A column of height < 2 appends its powers plus
    offsets to every term. The terms of a column product are the
    itertools.product of the terms so far with the column's table, so the
    exponents and signs are built by map and starmap, with no Python loop per
    term. The prod h! terms are distinct, with int signs +-1.
    """
    exps, signs = [tuple(head)], [1]
    for powers, offsets in columns:
        h = len(powers)
        if h < 2:
            exps = list(map(add, exps, repeat(tuple(map(add, powers, offsets)))))
            continue
        if offsets.count(offsets[0]) == h:
            table = permutations([power + offsets[0] for power in powers])
        else:  # a partly odd column
            table = [tuple(map(add, p, offsets)) for p in permutations(powers)]
        if len(exps) == 1:  # the first column of height >= 2: every sign so far is +1
            exps = list(map(exps[0].__add__, table))
            signs = list(_permutation_signs(h))
        else:
            exps = list(starmap(add, product(exps, table)))
            signs = list(starmap(mul, product(signs, _permutation_signs(h))))
    return exps, signs


def _staircase(h: int, step: int) -> tuple[int, ...]:
    """The powers step*(h-1), ..., step, 0 of an h-variable Vandermonde column in x^step."""
    return tuple(range(step * (h - 1), -1, -step))


def _gather(index):
    """The function reading the items at index out of a tuple, as a tuple."""
    if len(index) > 1:
        return itemgetter(*index)
    # itemgetter returns a bare item for one index and raises for none
    return lambda e: tuple([e[k] for k in index])


def _scatter(n: int, exps, coeffs, slots) -> SparsePolynomial:
    """The polynomial sum c * x^e over distinct slot-order terms, such as `_column_product`'s.

    slots[k] is the 1-based variable that slot k fills. A variable that no
    slot names reads the slot named 0, which must hold exponent 0 in every
    term. One gather per term, mapped over exps, puts the slots in variable
    order; every slot but the zero one is read, so distinct terms stay
    distinct, and with clean coefficients (nonzero ints or non-integral
    Fractions) the dict is clean by construction (see `_of_clean`).
    """
    if slots == list(range(1, n + 1)):  # the slots are in variable order already
        return SparsePolynomial._of_clean(n, dict(zip(exps, coeffs)))
    position = {v: k for k, v in enumerate(slots)}
    zero = position.get(0)
    gather = _gather([position.get(i, zero) for i in range(1, n + 1)])
    return SparsePolynomial._of_clean(n, dict(zip(map(gather, exps), coeffs)))


def _column_expansion(n: int, columns, step: int, odd=()) -> SparsePolynomial:
    """prod over columns of prod_{a<b} (x_{c_a}^step - x_{c_b}^step), times prod_{k in odd} x_k.

    A column (c_1, ..., c_h) is the Vandermonde determinant
    sum_sigma sgn(sigma) prod_a x_{c_sigma(a)}^(step*(h-a)). The columns use
    disjoint variables, so their product is a sum over the column group
    prod S_h whose prod h! terms are distinct monomials with int coefficient +-1,
    built here without any polynomial multiplication: `_column_product` lists
    them in slot order, the column entries one slot each, and `_scatter` moves
    each term's slots to its variables. An index repeated in odd is a
    multiplicity: odd = (1, 1) multiplies by x_1^2. An odd variable in a
    column is an offset of its slot; the others, the entries of columns of
    height 1 (each a factor 1) and a zero slot for any variable in neither
    lead every term.
    """
    columns = [tuple([_check_index(n, i) for i in col]) for col in columns]
    flat = [i for col in columns for i in col]
    in_columns = set(flat)
    if len(in_columns) != len(flat):
        raise ValueError(f"repeated index in Vandermonde columns {columns}")
    extra = {}  # odd variable -> its multiplicity
    for k in odd:
        k = _check_index(n, k)
        extra[k] = extra.get(k, 0) + 1
    slots = [k for k in extra if k not in in_columns] + [c[0] for c in columns if len(c) == 1]
    head = [extra.get(k, 0) for k in slots]
    columns = [c for c in columns if len(c) > 1]
    flat = [i for c in columns for i in c]
    if len(slots) + len(flat) < n:
        slots.append(0)
        head.append(0)
    columns = [(_staircase(len(c), step), tuple([extra.get(i, 0) for i in c])) for c in columns]
    return _scatter(n, *_column_product(columns, head), slots + flat)


def _integer(value, what: str) -> int:
    """value read with `operator.index`: a float, even 2.0, raises ValueError."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"non-integer {what} {value}") from None


def _check_index(n: int, i: int) -> int:
    if not 1 <= (i := _integer(i, "variable index")) <= n:
        raise AmbientMismatchError(f"variable x{i} outside ambient 1..{n}")
    return i


def vandermonde(n: int, indices) -> SparsePolynomial:
    """Product of pairwise differences over an index sequence; 1 if < 2 indices."""
    return _column_expansion(n, (tuple(indices),), 1)


def vandermonde_squares(n: int, indices) -> SparsePolynomial:
    """Vandermonde in the squared variables."""
    return _column_expansion(n, (tuple(indices),), 2)


# ---------------------------------------------------------------------------
# the signed-permutation action


@dataclass(frozen=True)
class SignedPermutation:
    """Element of {+-1}^n x| S_n; perm[i-1] is the image of i, signs in {+1,-1}."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError(f"{self.perm} is not a permutation of 1..{n}")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be a +-1 vector of matching length")

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(1, n + 1)), (1,) * n)

    @staticmethod
    def from_permutation(perm) -> "SignedPermutation":
        perm = tuple(perm)
        return SignedPermutation(perm, (1,) * len(perm))

    @staticmethod
    def sign_flip(n: int, i: int) -> "SignedPermutation":
        i = _check_index(n, i)
        return SignedPermutation(
            tuple(range(1, n + 1)), tuple(-1 if j == i else 1 for j in range(1, n + 1))
        )

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Group law chosen so that act(g.compose(h), p) == act(g, act(h, p))."""
        if self.n != other.n:
            raise AmbientMismatchError("signed permutations of different rank")
        perm = tuple(self.perm[i - 1] for i in other.perm)
        preimages = self.inverse().perm
        signs = tuple(s * other.signs[i - 1] for s, i in zip(self.signs, preimages))
        return SignedPermutation(perm, signs)

    def inverse(self) -> "SignedPermutation":
        inv_perm = [0] * self.n
        for i, j in enumerate(self.perm, start=1):
            inv_perm[j - 1] = i
        signs = tuple(self.signs[j - 1] for j in self.perm)
        return SignedPermutation(tuple(inv_perm), signs)


def act(g: SignedPermutation, p: SparsePolynomial) -> SparsePolynomial:
    """Ring homomorphism sending x_i to signs[perm(i)] * x_{perm(i)}.

    A relabelling of p's clean terms with a sign on each, so the result is
    clean by construction (see `SparsePolynomial._of_clean`).
    """
    if g.n != p.n:
        raise AmbientMismatchError("group element and polynomial rank differ")
    terms: dict[Exponents, Coefficient] = {}
    for exps, coeff in p.terms.items():
        new = [0] * p.n
        sign = 1
        for i, e in enumerate(exps):
            if e:
                j = g.perm[i] - 1
                new[j] = e
                if g.signs[j] == -1 and e % 2:
                    sign = -sign
        terms[tuple(new)] = sign * coeff  # a relabelling: distinct terms stay distinct
    return SparsePolynomial._of_clean(p.n, terms)


def _antisymmetrize(p: SparsePolynomial, blocks) -> SparsePolynomial:
    """sum over sigma in S_B1 x ... x S_Bk of sgn(sigma) * sigma(p), for disjoint blocks.

    sigma permutes the variables of each block among themselves and fixes
    every other variable. The sum is read off the orbits of p's terms (the
    alternant decomposition; Macdonald, Symmetric Functions, I.3): one pass
    reads each term's exponents in every block, largest first. A term with a
    repeated exponent in a block is fixed by a transposition of sign -1, so
    its orbit cancels; any other term is tau(x^key) for its sorted key and the
    sorting permutation tau, and adds sgn(tau) * coeff to that key. Each
    nonzero key then stands for the product of its blocks' alternants, times
    its exponents outside the blocks, which `_column_product` lists. Distinct
    keys have disjoint orbits, so no output term is summed twice, and each
    key's coefficient is normalised once.
    """
    blocks = [block for block in blocks if len(block) > 1]
    inside = {i for block in blocks for i in block}
    outside = [i for i in range(1, p.n + 1) if i not in inside]
    rest = _gather([i - 1 for i in outside])
    reads = [_gather([i - 1 for i in block]) for block in blocks]
    sums: dict[tuple[Exponents, ...], Coefficient] = {}
    for exps, coeff in p.terms.items():
        key = (rest(exps),)
        for read in reads:
            part = read(exps)
            if len(set(part)) < len(part):
                break
            ordered = tuple(sorted(part, reverse=True))
            if ordered != part:
                coeff = _permutation_sign(ordered, part) * coeff
            key += (ordered,)
        else:
            sums[key] = sums.get(key, 0) + coeff
    exps, coeffs = [], []
    for (head, *powers), coeff in _clean(sums).items():
        terms, signs = _column_product([(lam, (0,) * len(lam)) for lam in powers], head)
        exps += terms
        coeffs += signs if coeff == 1 else [coeff * sign for sign in signs]
    return _scatter(p.n, exps, coeffs, outside + [i for block in blocks for i in block])


def act_point(g: SignedPermutation, z) -> tuple[Coefficient, ...]:
    """Left action on points compatible with act: (g . p)(z) = p(g^-1 . z)."""
    if len(z) != g.n:
        raise AmbientMismatchError(f"point has {len(z)} coordinates, group element has rank {g.n}")
    ginv = g.inverse()
    return tuple(g.signs[i] * _normalize(z[ginv.perm[i] - 1]) for i in range(g.n))


# ---------------------------------------------------------------------------
# text parser (integers, a/b, xN, + - * ^, parentheses, partitions)


class _Parser:
    """The package's one text scanner: polynomials, points, partitions and bipartitions."""

    def __init__(self, text: str, n: int = 0, pos: int = 0):
        self.text = text
        self.n = n
        self.pos = pos

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        self.peek()

    def integer(self, message: str) -> int:
        """The run of ASCII digits at pos, which it passes; ParseError(message) if there is none."""
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error(message)
        return int(self.text[start : self.pos])

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> SparsePolynomial:
        poly = self.expression()
        self.end()
        return poly

    def expect(self, char: str, message: str):
        """Pass `char`, the next non-space character; ParseError(message) if it is another."""
        if self.peek() != char:
            self.error(message)
        self.pos += 1

    def end(self, message: str | None = None):
        """Only whitespace may follow; else ParseError(message), by default naming the character."""
        if self.peek():
            self.error(message or f"unexpected character {self.text[self.pos]!r}")

    def parts(self) -> tuple[int, ...]:
        """A partition's parts, written '(a,b,...)'; '()' is empty and a last ',' is allowed."""
        self.expect("(", "expected '('")
        parts = []
        while self.peek() != ")":
            parts.append(self.integer("expected a part or ')'"))
            if self.peek() != ",":
                break
            self.pos += 1
        self.expect(")", "expected ',' or ')'")
        return tuple(parts)

    def point(self) -> tuple[Coefficient, ...]:
        """Comma-separated coordinates, each an optional sign and a number."""
        coords = []
        while True:
            sign = self.peek()
            if sign in ("+", "-"):
                self.pos += 1
                self.skip_ws()
            value = self.number()
            coords.append(-value if sign == "-" else value)
            if self.peek() != ",":
                return tuple(coords)
            self.pos += 1

    def number(self) -> Coefficient:
        """An ASCII integer at pos, then optionally '/' and a nonzero denominator."""
        value = self.integer("expected a number")
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            denominator = self.integer("expected a denominator after '/'")
            if not denominator:
                raise ParseError("zero denominator", start)
            value = _exact_quotient(value, denominator)
        return value

    def expression(self) -> SparsePolynomial:
        ch = self.peek()
        sign = 1
        while ch in ("+", "-"):
            if ch == "-":
                sign = -sign
            self.pos += 1
            ch = self.peek()
        poly = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> SparsePolynomial:
        poly = self.factor()
        while self.peek() == "*":
            self.pos += 1
            poly = poly * self.factor()
        return poly

    def factor(self) -> SparsePolynomial:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            base = base ** self.integer("expected an integer exponent after '^'")
        return base

    def atom(self) -> SparsePolynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            poly = self.expression()
            self.expect(")", "expected ')'")
            return poly
        if ch == "x":
            self.pos += 1
            i = self.integer("expected a variable index after 'x'")
            if not 1 <= i <= self.n:
                self.error(f"variable x{i} outside ambient 1..{self.n}")
            return SparsePolynomial.variable(self.n, i)
        if "0" <= ch <= "9":
            return SparsePolynomial.constant(self.n, self.number())
        self.error("expected a number, variable or '('")


def parse_polynomial(text: str, n: int) -> SparsePolynomial:
    """Parse the canonical text form into a polynomial in n variables (n ≥ 0)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _Parser(text, n).parse()


def parse_point(text: str) -> tuple[Coefficient, ...]:
    """Parse comma-separated rational coordinates such as '1/2, -3, 0'."""
    parser = _Parser(text)
    coords = parser.point()
    parser.end()
    return coords
