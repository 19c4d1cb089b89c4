"""Partitions, bipartitions, the bidominance order and its Hasse diagram.

Partitions are kept in canonical form (non-increasing, no trailing zeros).
Rows are read from the `parts` tuple, 0-based, and zero-padded where a
routine needs rows past the length; `Partition.at` is the public 1-based
accessor. Dominance, bidominance and the Hecke order all compare prefix
sums in `_dominated`, and both covering routines walk the Brylawski moves
of `_brylawski_moves`. `hasse_diagram(n)` builds BP_n's diagram once per n
and hands every caller the same immutable object, which answers every "what
lies below" query: covering chains and down-set members, not just bitsets.
Partitions and bipartitions are read from text by `polynomials._Parser`,
the package's one scanner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce, total_ordering
from itertools import zip_longest
from operator import index, lt, mul, or_

from .errors import DEFAULT_LIMITS, SizeMismatchError
from .polynomials import _Parser

@total_ordering
@dataclass(frozen=True)
class Partition:
    """A canonical integer partition."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        try:
            parts = tuple(map(index, self.parts))
        except TypeError:
            raise ValueError(f"non-integer part in {self.parts}") from None
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in {self.parts}")
        if any(map(lt, parts, parts[1:])):
            raise ValueError(f"parts not non-increasing: {self.parts}")
        if 0 in parts:  # non-increasing, so the zeros trail
            parts = parts[: parts.index(0)]
        object.__setattr__(self, "parts", parts)

    @cached_property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def at(self, i: int) -> int:
        """1-based part access; reads as 0 beyond the length."""
        if i < 1:
            raise IndexError("partition rows are 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"

    def __repr__(self):
        return f"Partition({list(self.parts)})"


@dataclass(frozen=True)
class Bipartition:
    """An ordered pair of partitions."""

    left: Partition
    right: Partition

    @cached_property
    def size(self) -> int:
        return self.left.size + self.right.size

    @cached_property
    def interleaved(self) -> tuple[int, ...]:
        """The rows (left_1, right_1, left_2, right_2, ...), zero-padded to equal length."""
        return tuple(x for pair in zip_longest(self.left, self.right, fillvalue=0) for x in pair)

    def sort_key(self):
        """Deterministic vertex order: |left| descending, then lex on parts."""
        return (-self.left.size, self.left.parts, self.right.parts)

    def __str__(self):
        return f"({self.left},{self.right})"

    def __repr__(self):
        return f"Bipartition({self.left!r}, {self.right!r})"


def bp(left, right) -> Bipartition:
    """Shorthand constructor from part iterables."""
    return Bipartition(Partition(tuple(left)), Partition(tuple(right)))


def parse_partition(text: str, offset: int = 0) -> tuple[Partition, int]:
    """Parse "(a,b,...)" starting at `offset`; returns (partition, next position)."""
    scanner = _Parser(text, pos=offset)
    return Partition(scanner.parts()), scanner.pos


def parse_bipartition(text: str) -> Bipartition:
    """Parse "((a,b,...),(c,...))" with "()" for the empty partition."""
    scanner = _Parser(text)
    scanner.expect("(", "expected '(' opening the bipartition")
    left = Partition(scanner.parts())
    scanner.expect(",", "expected ',' between the two partitions")
    right = Partition(scanner.parts())
    scanner.expect(")", "expected ')' closing the bipartition")
    scanner.end("trailing input after bipartition")
    return Bipartition(left, right)


# ---------------------------------------------------------------------------
# orders on partitions


def _dominated(low, high) -> bool:
    """True iff every prefix sum of `low` is at most that of `high`, both zero-padded."""
    slack = 0
    for lo, hi in zip_longest(low, high, fillvalue=0):
        slack += hi - lo
        if slack < 0:
            return False
    return True


def _same_size(a, b) -> None:
    """Raise SizeMismatchError unless the two (bi)partitions have the same size."""
    if a.size != b.size:
        raise SizeMismatchError(f"|{a}| = {a.size} != |{b}| = {b.size}")


def _check_size(n: int, *shapes) -> None:
    """Raise SizeMismatchError unless every shape has size n; a lone shape is named.

    A negative n is rejected first, with `enumerate_bipartitions`' message.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if any(shape.size != n for shape in shapes):
        if len(shapes) == 1:
            raise SizeMismatchError(f"shape {shapes[0]} has size {shapes[0].size}, expected {n}")
        raise SizeMismatchError(f"shapes must have size {n}")


def dominates(p: Partition, q: Partition) -> bool:
    """True iff p dominates q (all prefix sums of q bounded by those of p)."""
    _same_size(p, q)
    return _dominated(q.parts, p.parts)


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram."""
    return Partition(_conjugate_parts(p.parts))


def _conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The column lengths of the diagram with these non-increasing rows, longest first.

    Row h (1-based) ends parts[h-1] - parts[h] columns of length h, so one walk
    from the last row up lists them; no `Partition` is built.
    """
    cols: list[int] = []
    below = 0
    for height in range(len(parts), 0, -1):
        cols += [height] * (parts[height - 1] - below)
        below = parts[height - 1]
    return tuple(cols)


def glue(p: Partition, q: Partition) -> Partition:
    """Componentwise sum of the two part sequences."""
    return Partition(tuple(x + y for x, y in zip_longest(p.parts, q.parts, fillvalue=0)))


def concatenate(p: Partition, q: Partition) -> Partition:
    """Sorted multiset union of the parts."""
    return Partition(tuple(sorted(p.parts + q.parts, reverse=True)))


def cut(p: Partition, t: int) -> Bipartition:
    """Slice the diagram of p at column threshold t."""
    if t < 0:
        raise ValueError("cut threshold must be non-negative")
    j = next((i for i, part in enumerate(p.parts) if part < t), p.length)
    rho = (t,) * j + p.parts[j:]
    sigma = tuple(part - t for part in p.parts[:j])
    return Bipartition(Partition(rho), Partition(sigma))


def _brylawski_moves(parts: tuple[int, ...]):
    """Yield (i, j, below) for each partition `below` that `parts` covers in dominance.

    `below` moves one box of `parts` from row i down to row j (rows 0-based,
    row len(parts) reading 0). By Brylawski's rule j is the first row past the
    rows equal to parts[i] - 1, and the move is a cover iff row j is at least
    2 shorter than row i, and exactly 2 shorter when j > i+1. A move from row
    i keeps the rows above i and lowers row i, so rows in order give lex order.
    """
    m = len(parts)
    rows = [*parts, 0]
    for i, top in enumerate(parts):
        j = i + 1
        while j < m and rows[j] == top - 1:
            j += 1
        if rows[j] <= top - 2 and (j == i + 1 or rows[j] == top - 2):
            yield i, j, (*parts[:i], top - 1, *parts[i + 1 : j], rows[j] + 1, *parts[j + 1 :])


def partition_coverings_below(p: Partition) -> list[Partition]:
    """Partitions covered by p in the dominance order, in lex order of their parts."""
    return [Partition(below) for _, _, below in _brylawski_moves(p.parts)]


def is_cm_shape(p: Partition) -> bool:
    """Shapes (n-d,1,...,1), (n-d,d) and (a,a,1)."""
    parts = p.parts
    if len(parts) <= 2:
        return True
    if all(x == 1 for x in parts[1:]):
        return True
    return len(parts) == 3 and parts[0] == parts[1] and parts[2] == 1


# ---------------------------------------------------------------------------
# orders on bipartitions


def bidominates(a: Bipartition, b: Bipartition) -> bool:
    """True iff a bidominates b, that is, a's interleaved rows dominate b's."""
    _same_size(a, b)
    return _dominated(b.interleaved, a.interleaved)


def hecke_leq(a: Bipartition, b: Bipartition) -> bool:
    """a below b in the Hecke-algebra order: left prefix sums, then shifted right ones."""
    _same_size(a, b)
    width = max(a.left.length, b.left.length)  # the left rows, padded to a common length
    low, high = (x.left.parts + (0,) * (width - x.left.length) + x.right.parts for x in (a, b))
    return _dominated(low, high)


def induced_leq(a: Bipartition, b: Bipartition) -> bool:
    """a below b in the induced-representation order."""
    _same_size(a, b)
    if a.left.size < b.left.size:
        return True
    if a.left.size != b.left.size:
        return False
    return dominates(b.left, a.left) and dominates(b.right, a.right)


# ---------------------------------------------------------------------------
# covering moves (the four constructive cases)


def _add_on_rows(rows: list[int], lo: int, hi: int, step: int) -> list[int]:
    """rows with `step` added to each of rows lo..hi."""
    return [x + step if lo <= r <= hi else x for r, x in enumerate(rows)]


def bipartition_coverings_below(a: Bipartition) -> list[Bipartition]:
    """All bipartitions covered by a = (λ, μ) in the bidominance order.

    Rows are 0-based and read as 0 past the length. Four moves give the covers:
    1. a Brylawski move of λ from row i to row j, if i > 0 and μ_{i-1} = μ_j;
    2. a Brylawski move of μ from row i to row j, if λ_i = λ_{j+1};
    3. a box from each of λ's rows i..k, k the last with λ_k = λ_i, to the
       same rows of μ, if (i = 0 or μ_{i-1} > μ_i) and μ_i = μ_k;
    4. a box from each of μ's rows i..k, k the last with μ_k = μ_i, to λ's
       rows i+1..k+1, if λ_i > λ_{i+1} = λ_{k+1}.
    No two moves give the same bipartition.
    """
    lam, mu = a.left.parts, a.right.parts
    width = max(len(lam), len(mu)) + 2
    L = [*lam] + [0] * (width - len(lam))
    M = [*mu] + [0] * (width - len(mu))
    found = [
        Bipartition(Partition(below), a.right)
        for i, j, below in _brylawski_moves(lam)
        if i > 0 and M[i - 1] == M[j]
    ]
    found += [
        Bipartition(a.left, Partition(below))
        for i, j, below in _brylawski_moves(mu)
        if L[i] == L[j + 1]
    ]
    for i in range(len(lam)):
        k = i + lam[i:].count(lam[i]) - 1
        if (i == 0 or M[i - 1] > M[i]) and M[i] == M[k]:
            found.append(bp(_add_on_rows(L, i, k, -1), _add_on_rows(M, i, k, 1)))
    for i in range(len(mu)):
        k = i + mu[i:].count(mu[i]) - 1
        if L[i] > L[i + 1] == L[k + 1]:
            found.append(bp(_add_on_rows(L, i + 1, k + 1, 1), _add_on_rows(M, i, k, -1)))
    return sorted(found, key=Bipartition.sort_key)


# ---------------------------------------------------------------------------
# enumeration and the Hasse diagram


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in lex order: each row takes its values in ascending order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    result: list[Partition] = []

    def build(remaining, bound, prefix):
        if remaining == 0:
            result.append(Partition(prefix))
            return
        for part in range(1, min(remaining, bound) + 1):
            build(remaining - part, part, prefix + (part,))

    build(n, n, ())
    return result


def _partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n), the partition numbers, counted without building a partition.

    After the parts 1..m are allowed, entry s counts the partitions of s into
    parts of size at most m; each new part size adds those that use it.
    """
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All bipartitions of n, built in the vertex order of `Bipartition.sort_key`.

    Their count, the sum of p(k) p(n - k), is held to `max_enumeration` before
    any partition is built.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    counts = _partition_counts(n)
    DEFAULT_LIMITS.check("max_enumeration", sum(map(mul, counts, reversed(counts))))
    partitions = [enumerate_partitions(k) for k in range(n + 1)]
    return [
        Bipartition(left, right)
        for a in range(n, -1, -1)
        for left in partitions[a]
        for right in partitions[n - a]
    ]


@dataclass(frozen=True)
class HasseDiagram:
    """Covering graph of (BP_n, bidominance); edges point from coverer to covered.

    `hasse_diagram(n)` builds one diagram per n and shares it: it is immutable,
    and its covers and down-sets are computed once, on first use.
    """

    n: int
    vertices: tuple[Bipartition, ...]

    @cached_property
    def _positions(self) -> dict[Bipartition, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def index(self, v: Bipartition) -> int:
        try:
            return self._positions[v]
        except KeyError:
            raise ValueError(f"{v} is not a vertex of BP_{self.n}") from None

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (coverer, covered) index pairs, sorted as built: each vertex's covers,
        like the vertices, come in `Bipartition.sort_key` order."""
        index = self._positions
        covers = bipartition_coverings_below
        return tuple((i, index[c]) for i, v in enumerate(self.vertices) for c in covers(v))

    @cached_property
    def _below(self) -> tuple[tuple[int, ...], ...]:
        """The indices each vertex covers, in edge order."""
        below = [[] for _ in self.vertices]
        for u, v in self.edges:
            below[u].append(v)
        return tuple(map(tuple, below))

    @cached_property
    def _down(self) -> tuple[int, ...]:
        """Each vertex's down-set, itself included, as a bitset: bit i is vertex i.

        Built in lex order of `Bipartition.interleaved`, a linear extension of
        bidominance, so each vertex comes after the covers whose down-sets it joins.
        """
        below, down = self._below, [0] * len(self.vertices)
        for u in sorted(range(len(down)), key=lambda u: self.vertices[u].interleaved):
            down[u] = reduce(or_, (down[c] for c in below[u]), 1 << u)
        return tuple(down)

    def down_set(self, *tops: Bipartition) -> int:
        """Bit i is set iff one of the tops bidominates vertex i: the union of their down-sets."""
        return reduce(or_, (self._down[self.index(top)] for top in tops), 0)

    def vertices_below(self, *tops: Bipartition) -> list[Bipartition]:
        """The vertices in the union of the tops' down-sets, in vertex order."""
        below = self.down_set(*tops)
        return [v for i, v in enumerate(self.vertices) if below >> i & 1]

    def covering_chain(self, top: Bipartition, bottom: Bipartition) -> list[Bipartition]:
        """The covers top > ... > bottom, each step the first cover whose down-set holds bottom."""
        down, target, chain = self._down, self.index(bottom), [self.index(top)]
        if not down[chain[0]] >> target & 1:
            raise ValueError(f"{top} does not bidominate {bottom}")
        while chain[-1] != target:
            chain.append(next(c for c in self._below[chain[-1]] if down[c] >> target & 1))
        return [self.vertices[i] for i in chain]

    def closure(self) -> set[tuple[int, int]]:
        """Reflexive-transitive closure of the covering edges, as index pairs."""
        down = self._down
        return {(u, v) for u, bits in enumerate(down) for v in range(len(down)) if bits >> v & 1}

    def maximal_chain_lengths(self) -> set[int]:
        """Element counts of maximal chains from the maximum to the minimum.

        Each vertex's set of chain lengths down to a minimal element is built
        once, after those of the vertices it covers, so the cost is the edge
        count times the number of distinct lengths, not the number of chains.
        """
        below = self._below
        top = self.index(bp((self.n,), ()) if self.n else bp((), ()))
        lengths: dict[int, set[int]] = {}

        def chains_from(u):
            if u not in lengths:
                lengths[u] = {c + 1 for v in below[u] for c in chains_from(v)} if below[u] else {1}
            return lengths[u]

        return chains_from(top)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": [
                {"left": list(v.left.parts), "right": list(v.right.parts)} for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph bidominance {", "  rankdir=TB;"]
        for i, v in enumerate(self.vertices):
            label = f"([{','.join(map(str, v.left.parts))}],[{','.join(map(str, v.right.parts))}])"
            lines.append(f'  v{i} [label="{label}"];')
        for u, v in self.edges:
            lines.append(f"  v{u} -> v{v};")
        lines.append("}")
        return "\n".join(lines)


@cache
def _hasse_diagram(n: int) -> HasseDiagram:
    return HasseDiagram(n, tuple(enumerate_bipartitions(n)))


def hasse_diagram(n: int) -> HasseDiagram:
    """The bidominance Hasse diagram on BP_n, built once per n and shared."""
    return _hasse_diagram(n)
