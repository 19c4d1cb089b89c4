"""Tableaux, bitableaux, the glueing bijection and Specht polynomials."""

from __future__ import annotations

import itertools
import json
from bisect import bisect
from dataclasses import dataclass
from functools import cache
from math import comb, factorial, prod

from .errors import DEFAULT_LIMITS, ResourceLimits
from .partitions import Bipartition, Partition, _check_size, _conjugate_parts, glue
from .polynomials import SparsePolynomial, _column_expansion, _column_product, _scatter, _staircase


@dataclass(frozen=True)
class Tableau:
    """A filling of a Young diagram with distinct positive integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        while rows and not rows[-1]:  # an inner empty row fails the length check below
            rows = rows[:-1]
        object.__setattr__(self, "rows", rows)
        entries = [e for row in self.rows for e in row]
        if len(set(entries)) != len(entries):
            raise ValueError(f"repeated entry in tableau {self.rows}")
        lengths = [len(r) for r in self.rows]
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
            raise ValueError(f"row lengths not non-increasing: {lengths}")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def entries(self) -> frozenset[int]:
        return frozenset(e for row in self.rows for e in row)

    def columns(self) -> list[tuple[int, ...]]:
        """Column entry sequences, read top to bottom."""
        width = len(self.rows[0]) if self.rows else 0
        return [
            tuple(row[j] for row in self.rows if len(row) > j) for j in range(width)
        ]

    @staticmethod
    def from_columns(cols) -> "Tableau":
        heights = [len(c) for c in cols]
        if any(a < b for a, b in itertools.pairwise(heights)):
            raise ValueError(f"column heights not non-increasing: {heights}")
        depth = max(heights, default=0)
        rows = tuple(tuple(c[i] for c in cols if len(c) > i) for i in range(depth))
        return Tableau(rows)

    def to_json(self) -> dict:
        return {"shape": list(self.shape.parts), "rows": [list(r) for r in self.rows]}

    def __str__(self):
        return "/".join(" ".join(map(str, row)) for row in self.rows) or "-"


@dataclass(frozen=True)
class Bitableau:
    """A pair of tableaux whose entries partition {1,...,n}."""

    first: Tableau
    second: Tableau
    n: int

    def __post_init__(self):
        union = self.first.entries | self.second.entries
        if self.first.entries & self.second.entries or union != frozenset(range(1, self.n + 1)):
            raise ValueError("entries of the two tableaux must partition 1..n")

    @property
    def shape(self) -> Bipartition:
        return Bipartition(self.first.shape, self.second.shape)

    def to_json(self) -> dict:
        return {"first": self.first.to_json(), "second": self.second.to_json(), "n": self.n}

    def __str__(self):
        return f"({self.first} , {self.second})"


# ---------------------------------------------------------------------------
# glueing bijection


def glue_bitableau(bt: Bitableau) -> Tableau:
    """Merge the two tableaux columnwise onto the glued shape.

    Columns of equal length keep their left-to-right order in (T, S),
    with all of T's columns preceding S's.
    """
    cols = bt.first.columns() + bt.second.columns()
    cols.sort(key=len, reverse=True)  # sorted() is stable, preserving occurrence order
    return Tableau.from_columns(cols)


def split_bitableau(t: Tableau, shape: Bipartition, n: int) -> Bitableau:
    """Inverse of glue_bitableau for a target bipartition shape."""
    if t.shape != glue(shape.left, shape.right):
        raise ValueError(f"tableau shape {t.shape} is not the glueing of {shape}")
    cols = t.columns()
    heights, split = _column_heights(shape)
    left_heights, right_heights = list(heights[:split]), list(heights[split:])
    left_cols, right_cols = [], []
    # within each equal-height group, the left component's columns come first
    for col in cols:
        if left_heights and left_heights[0] == len(col):
            left_heights.pop(0)
            left_cols.append(col)
        else:
            right_heights.remove(len(col))
            right_cols.append(col)
    return Bitableau(Tableau.from_columns(left_cols), Tableau.from_columns(right_cols), n)


# ---------------------------------------------------------------------------
# Specht polynomials


def specht_polynomial_sn(t: Tableau, n: int | None = None) -> SparsePolynomial:
    """Product of the column Vandermonde polynomials."""
    if n is None:
        n = max(t.entries, default=1)
    return _column_expansion(n, t.columns(), 1)


def specht_polynomial_bn(
    bt: Bitableau, limits: ResourceLimits = DEFAULT_LIMITS
) -> SparsePolynomial:
    """Columnwise Vandermondes in the squares, times the second component's variables."""
    first = bt.first.columns()
    return _specht_polynomial(bt.n, first + bt.second.columns(), len(first), limits)


def _specht_polynomial(
    n: int, columns: list[tuple[int, ...]], split: int, limits: ResourceLimits
) -> SparsePolynomial:
    """The Specht polynomial with these columns, the first `split` the first tableau's.

    Its prod h! terms, h over the column heights, are checked against
    `limits.max_terms` before any is built.
    """
    limits.check("max_terms", prod(factorial(len(col)) for col in columns))
    return _column_expansion(n, columns, 2, [e for col in columns[split:] for e in col])


def _column_heights(shape: Bipartition) -> tuple[tuple[int, ...], int]:
    """The column heights of the first tableau, then of the second, and the first's count."""
    left = _conjugate_parts(shape.left.parts)
    return left + _conjugate_parts(shape.right.parts), len(left)


def _specht_degree(heights: tuple[int, ...], split: int) -> int:
    """The degree of every Specht polynomial whose columns have these heights.

    A column of height h is a Vandermonde in h squares, of degree h(h - 1),
    times its h variables when it belongs to the second tableau, one of the
    columns past the first `split`.
    """
    return sum(h * h for h in heights) - sum(heights[:split])


def _reference_columns(heights: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The columns of the reference filling: 1, 2, ... down each column in turn."""
    ends = itertools.accumulate(heights)
    return [tuple(range(end - h + 1, end + 1)) for h, end in zip(heights, ends)]


def reference_bitableau(shape: Bipartition, n: int) -> Bitableau:
    """Fill columns of the first tableau with 1,2,..., then the second's."""
    _check_size(n, shape)
    heights, split = _column_heights(shape)
    columns = _reference_columns(heights)
    first, second = columns[:split], columns[split:]
    return Bitableau(Tableau.from_columns(first), Tableau.from_columns(second), n)


def all_bitableaux(shape: Bipartition, n: int):
    """Every bitableau of the given shape, as an iterator."""
    ref = reference_bitableau(shape, n)
    for perm in itertools.permutations(range(1, n + 1)):
        yield relabel_bitableau(ref, dict(zip(range(1, n + 1), perm)))


def relabel_bitableau(bt: Bitableau, mapping: dict[int, int]) -> Bitableau:
    remap = lambda t: Tableau(tuple(tuple(mapping[e] for e in row) for row in t.rows))
    return Bitableau(remap(bt.first), remap(bt.second), bt.n)


def _column_assignments(
    heights: tuple[int, ...], split: int, n: int, limits: ResourceLimits, admits=None
) -> list[list[tuple[int, ...]]]:
    """Every assignment of 1..n to columns of these heights, one per Specht generator.

    An assignment is a list of column entry tuples, the first `split` columns
    the first tableau's. Each column takes a combination of the remaining
    entries, and equal-height columns of one tableau come in increasing order:
    disjoint columns compare by their first entries, so a column that follows
    an equal-height one draws only from the remaining entries above that
    column's first, and no combination is discarded. There are
    n! / (prod h! * prod r!) assignments, h over the column heights and r over
    the lengths of the runs of equal-height columns in each tableau; that count
    is checked against `limits.max_enumeration` before any is made.

    admits(k, col), when given, prunes every assignment whose k-th column is
    col, and the search stops at the first survivor: the list holds at most
    that one.
    """
    sides = (heights[:split], heights[split:])
    runs = [len(list(r)) for hs in sides for _, r in itertools.groupby(hs)]
    count = factorial(n) // (prod(map(factorial, heights)) * prod(map(factorial, runs)))
    limits.check("max_enumeration", count)
    last = len(heights)
    out = []

    def assign(k: int, remaining: tuple[int, ...], chosen: list[tuple[int, ...]]):
        if k == last:
            out.append(chosen)
            return
        pool = remaining
        if k not in (0, split) and heights[k - 1] == heights[k]:
            pool = remaining[bisect(remaining, chosen[-1][0]) :]
        for col in itertools.combinations(pool, heights[k]):
            if admits is None or admits(k, col):
                assign(k + 1, tuple(e for e in remaining if e not in col), chosen + [col])
                if admits is not None and out:
                    return

    assign(0, tuple(range(1, n + 1)), [])
    return out


def specht_generators(
    shape: Bipartition, n: int, limits: ResourceLimits = DEFAULT_LIMITS
) -> list[SparsePolynomial]:
    """The S_n-orbit of the reference Specht polynomial, one per sign class.

    A Specht polynomial is fixed up to sign by its column sets and by which
    tableau each column belongs to, and distinct assignments give distinct
    polynomials, so each comes once from `_column_assignments`; their count is
    checked there, after the term count of one generator.
    Output follows the sorted (first, second) column sets.
    Every generator is the same column product with other variables in its
    slots, so `_column_product` builds it once in slot order (the columns in
    height order, the second tableau's odd), and each assignment scatters it
    onto its column entries. Ascending columns put every polynomial's
    lex-leading term at the identity of the column group, with coefficient
    +1, so each comes out sign-normalized.
    """
    _check_size(n, shape)
    heights, split = _column_heights(shape)
    limits.check("max_terms", prod(map(factorial, heights)))
    keys = sorted(
        ((tuple(sorted(chosen[:split])), tuple(sorted(chosen[split:]))), chosen)
        for chosen in _column_assignments(heights, split, n, limits)
    )
    columns = [(_staircase(h, 2), (0,) * h) for h in heights[:split]]
    columns += [(_staircase(h, 2), (1,) * h) for h in heights[split:]]
    exps, signs = _column_product(columns)
    return [_scatter(n, exps, signs, [e for col in chosen for e in col]) for _, chosen in keys]


def _nonvanishing_assignment(
    heights: tuple[int, ...], split: int, z, limits: ResourceLimits = DEFAULT_LIMITS
) -> list[tuple[int, ...]] | None:
    """The first column assignment whose Specht generator is nonzero at z, or None.

    The generators are those of the shape with these column heights
    (`_column_heights`), whose sizes sum to len(z). A generator is a product of
    column Vandermondes in the squares, times the variables of the second
    tableau's columns, so it is nonzero at z iff the entries of each column
    have distinct squares and every entry of a second-tableau column is
    nonzero. The coordinates are squared once and no polynomial is built; the
    assignments are those of `specht_generators`, and their count is held to
    `limits.max_enumeration` as there.
    """
    n = len(z)
    squares = (None, *(c * c for c in z))  # squares[e] belongs to entry e

    def admits(k: int, col: tuple[int, ...]) -> bool:
        seen = {squares[e] for e in col}
        return len(seen) == len(col) and (k < split or 0 not in seen)

    survivors = _column_assignments(heights, split, n, limits, admits)
    return survivors[0] if survivors else None


# ---------------------------------------------------------------------------
# standard fillings


@cache
def num_standard_tableaux(p: Partition) -> int:
    """Hook-length formula."""
    conj = _conjugate_parts(p.parts)
    hooks = (part - j + conj[j] - i - 1 for i, part in enumerate(p.parts) for j in range(part))
    return factorial(p.size) // prod(hooks)


def num_standard_bitableaux(shape: Bipartition) -> int:
    """Choose the first component's entries, then fill each side standardly."""
    n = shape.size
    return (
        comb(n, shape.left.size)
        * num_standard_tableaux(shape.left)
        * num_standard_tableaux(shape.right)
    )


def enumerate_standard_tableaux(p: Partition, entries=None) -> list[Tableau]:
    """Row/column-increasing fillings with the given entry set, each built once.

    The entries go in increasing order, each to an outer corner of the cells filled so far.
    """
    if entries is None:
        entries = range(1, p.size + 1)
    entries = sorted(entries)
    if len(entries) != p.size:
        raise ValueError("entry count must match the shape size")
    results = []
    rows = [[] for _ in p.parts]

    def place(k: int):
        if k == len(entries):
            results.append(Tableau(tuple(tuple(r) for r in rows)))
            return
        for i, row in enumerate(rows):
            if len(row) < p.parts[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(entries[k])
                place(k + 1)
                row.pop()

    place(0)
    return results


def enumerate_standard_bitableaux(shape: Bipartition) -> list[Bitableau]:
    """All standard bitableaux: both components row- and column-increasing."""
    n = shape.size
    out = []
    for left_entries in itertools.combinations(range(1, n + 1), shape.left.size):
        right_entries = sorted(set(range(1, n + 1)) - set(left_entries))
        for t in enumerate_standard_tableaux(shape.left, left_entries):
            for s in enumerate_standard_tableaux(shape.right, right_entries):
                out.append(Bitableau(t, s, n))
    return out


def bitableau_from_json(doc) -> Bitableau:
    if isinstance(doc, str):
        doc = json.loads(doc)
    return Bitableau(
        Tableau(tuple(tuple(r) for r in doc["first"]["rows"])),
        Tableau(tuple(tuple(r) for r in doc["second"]["rows"])),
        doc["n"],
    )
