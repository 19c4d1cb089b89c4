"""Orbit types under signed permutations and the orbit-set decomposition of Specht varieties.

The nonempty orbit classes of size n, their positions in `hasse_diagram(n)`,
their JSON fields and their representatives are tabulated once per n, so a
decomposition is one bit test per class against the shape's down-set
(`_outside`). Every report is built afresh from those tables; none of its
dicts or lists is shared. The CLI renders each table row's JSON text once per
n from the same tables and splices the selected rows into its output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import compress, zip_longest

from .errors import EmptyOrbitError, SizeMismatchError
from .partitions import (
    Bipartition,
    Partition,
    bidominates,
    concatenate,
    cut,
    enumerate_partitions,
    glue,
    hasse_diagram,
)
from .polynomials import Coefficient, _normalize
from .tableaux import _column_heights, _nonvanishing_assignment

Point = tuple[Coefficient, ...]


def as_point(coords) -> Point:
    return tuple(map(_normalize, coords))


@dataclass(frozen=True)
class OrbitClass:
    """An orbit-type class of points, labelled by a bipartition."""

    bipartition: Bipartition
    nonempty: bool

    def to_json(self) -> dict:
        return {
            "bipartition": str(self.bipartition),
            "left": list(self.bipartition.left.parts),
            "right": list(self.bipartition.right.parts),
            "nonempty": self.nonempty,
        }


def sn_orbit_type(z) -> Partition:
    """Multiplicity partition of the coordinate values."""
    counts = Counter(as_point(z))
    return Partition(tuple(sorted(counts.values(), reverse=True)))


def bn_orbit_type(z) -> Bipartition:
    """Cut of the multiplicity partition of the squared coordinates at the zero count."""
    z = as_point(z)
    zeros = sum(1 for c in z if c == 0)
    return cut(sn_orbit_type(c * c for c in z), zeros)


def orbit_set_nonempty(shape: Bipartition) -> bool:
    """A class is populated iff the left parts are constant through row len(right)+1."""
    lam, rows = shape.left.parts, shape.right.length + 1
    return lam[:rows] == lam[:1] * rows  # an empty left part reads as all zeros


def orbit_representative(shape: Bipartition) -> Point:
    """Canonical point of the class, built from blocks of values 1, 2, ... and zeros."""
    if not orbit_set_nonempty(shape):
        raise EmptyOrbitError(f"orbit set of {shape} is empty")
    lam, mu = shape.left.parts, shape.right.parts
    first = lam[0] if lam else 0
    rest = len(mu) + 1  # the first row of lam past the zero block
    return _blocks([first + part for part in mu]) + (0,) * first + _blocks(lam[rest:], rest)


def _blocks(sizes, start: int = 1) -> Point:
    """The value start repeated sizes[0] times, then start + 1 repeated sizes[1] times, ..."""
    return tuple(i for i, size in enumerate(sizes, start) for _ in range(size))


def variety_contains(shape: Bipartition, z, strategy: str = "orbit") -> bool:
    """Point membership in the Specht variety of the shape.

    strategy "evaluate" checks that every Specht generator vanishes at z,
    from the generators' product form (`tableaux._nonvanishing_assignment`)
    without expanding any; strategy "orbit" checks that the orbit type of z
    fails to bidominate the shape. The two must agree, which the test suite
    verifies.
    """
    z = as_point(z)
    if shape.size != len(z):
        raise SizeMismatchError(f"shape of size {shape.size} vs point of dimension {len(z)}")
    if strategy == "orbit":
        return not bidominates(shape, bn_orbit_type(z))
    if strategy == "evaluate":
        return _nonvanishing_assignment(*_column_heights(shape), z) is None
    raise ValueError(f"unknown strategy {strategy!r}; choose 'orbit' or 'evaluate'")


@cache
def _nonempty_classes(n: int) -> tuple[Bipartition, ...]:
    """The nonempty classes of size n, each `phi(t, residual)` once, in vertex order."""
    classes = (phi(t, residual) for t in range(n + 1) for residual in enumerate_partitions(n - t))
    return tuple(sorted(classes, key=Bipartition.sort_key))


@cache
def _class_rows(n: int) -> tuple[tuple[int, OrbitClass, tuple], ...]:
    """One row per nonempty class of size n, in `_nonempty_classes(n)` order.

    A row holds the class's position in `hasse_diagram(n)`, its shared
    `OrbitClass` and the (key, value) items of its `to_json()`, lists as tuples.
    """
    position = hasse_diagram(n).index
    rows = []
    for shape in _nonempty_classes(n):
        orbit_class = OrbitClass(shape, True)
        fields = tuple(
            (key, tuple(value) if type(value) is list else value)
            for key, value in orbit_class.to_json().items()
        )
        rows.append((position(shape), orbit_class, fields))
    return tuple(rows)


@cache
def _representative_rows(n: int) -> tuple[tuple[str, ...], ...]:
    """Each class's `orbit_representative` coordinates as strings, in `_class_rows(n)` order."""
    return tuple(tuple(map(str, orbit_representative(shape))) for shape in _nonempty_classes(n))


def _outside(shape: Bipartition) -> list[bool]:
    """For each row of `_class_rows(shape.size)`, whether the shape fails to bidominate its class.

    One bit test of the shape's down-set per row; `itertools.compress` with this
    mask selects the decomposition's rows from any table in the same order.
    """
    below = hasse_diagram(shape.size).down_set(shape)
    return [not below >> v & 1 for v, _, _ in _class_rows(shape.size)]


def decompose_variety(shape: Bipartition) -> list[OrbitClass]:
    """Nonempty orbit classes whose type is not bidominated by the shape.

    The classes are tabulated once per n; a query tests one bit of the shape's
    down-set per class and returns a new list of the shared, frozen classes.
    """
    rows = compress(_class_rows(shape.size), _outside(shape))
    return [orbit_class for _, orbit_class, _ in rows]


def decomposition_report(shape: Bipartition) -> dict:
    """JSON-ready decomposition with one representative per class.

    Read from the per-n class and representative tables, but every dict and
    list in the report is built afresh, so a caller may mutate it freely.
    """
    n = shape.size
    keep = _outside(shape)
    return {
        "bipartition": str(shape),
        "classes": [
            {key: list(val) if type(val) is tuple else val for key, val in fields}
            for _, _, fields in compress(_class_rows(n), keep)
        ],
        "representatives": [list(coords) for coords in compress(_representative_rows(n), keep)],
    }


# ---------------------------------------------------------------------------
# witness points outside the variety


def witness_z1(shape: Bipartition) -> Point:
    """Blocks of distinct nonzero values with multiplicities from the glued shape."""
    return _blocks(glue(shape.left, shape.right).parts)


def witness_z2(shape: Bipartition) -> Point:
    """Leading zeros, then blocks mixing the right parts with the shifted left parts."""
    lam, mu = shape.left.parts, shape.right.parts
    mixed = (x + y for x, y in zip_longest(mu, lam[1:], fillvalue=0))
    return _blocks((lam[0] if lam else 0, *mixed), start=0)


# ---------------------------------------------------------------------------
# the parameterization of nonempty classes by (zero count, residual type)


def phi(t: int, residual: Partition) -> Bipartition:
    """Class of points with t zeros whose nonzero squares have type `residual`."""
    if t < 0:
        raise ValueError("zero count must be non-negative")
    return cut(concatenate(residual, Partition((t,))), t)


def lambda_t(p: Partition, t: int) -> Partition:
    """Merge the last part >= t with its successor, discounting t boxes."""
    if t < 0:
        raise ValueError("threshold must be non-negative")
    if t == 0:
        return p
    rows = p.parts + (0,)
    if rows[0] < t:
        raise ValueError(f"no part of {p} reaches threshold {t}")
    s = max(i for i, part in enumerate(rows) if part >= t)
    return Partition(rows[:s] + (rows[s] + rows[s + 1] - t,) + rows[s + 2 :])
