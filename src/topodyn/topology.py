"""Finite topological spaces on points 0..n-1.

Subsets are bitmasks (bit x set means point x is in the set), so interiors and
closures are a handful of word operations.  Every finite topology is
determined by its minimal neighbourhoods, and a space is stored as nothing
else: ``TopoSpace(n, table)`` takes one mask per point and checks, in
O(sum of the entries' sizes), that the table is the up-sets of a preorder,
the exact condition for its unions to be a topology with this table as its
minimal neighbourhoods.  Interior, closure and openness read the table; the
opens, the unions of its entries, are listed only when something asks for
them, as up-sets built one class of equivalent points at a time: each open is
produced exactly once, with no set to look it up in, in O(classes * |opens|)
integer operations.  The canonical order (by size, then by mask) is two
stable C-level sorts.  Only ``from_opens`` takes a family of opens, and only
it checks one.

Isomorphism classes are searched with one routine, ``first_of_orbits``: of
the items given (tables, or tuples of program maps) it keeps, in order, each
one that no move sends to an earlier kept one.  A move ``(act, inverse)``
stands for a permutation p of the points and sends a tuple t to
``tuple(act[t[x]] for x in inverse)``: entry x moves to p[x], and its value
is acted on by p.  On a table with one mask per point (minimal
neighbourhoods, or a relation's successor sets) act maps each mask to its
points' images, and ``relabellings`` gives a move for every p; on a program
map act maps each point to its image and fixes None.
``representative_topologies`` keeps one space of each homeomorphism class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence


def mask_from_points(points: Iterable[int], n: int) -> int:
    m = 0
    for x in points:
        if type(x) is not int:  # bool and float are not points
            raise ValueError(f"point {x!r} is not an integer")
        if not 0 <= x < n:
            raise ValueError(f"point {x} outside 0..{n - 1}")
        m |= 1 << x
    return m


def points_from_mask(mask: int) -> list[int]:
    return list(iter_points(mask))


def full_mask(n: int) -> int:
    return (1 << n) - 1


def iter_points(mask: int) -> Iterator[int]:
    x = 0
    while mask:
        if mask & 1:
            yield x
        mask >>= 1
        x += 1


def meets(table: Sequence[int], m: int) -> int:
    """The points x whose mask ``table[x]`` meets m, one mask test per point:
    a closure on a space's minimal neighbourhoods, a preimage on a
    relation's successor masks."""
    r, bit = 0, 1
    for t in table:
        if t & m:
            r |= bit
        bit <<= 1
    return r


def fits(table: Sequence[int], m: int) -> int:
    """The points x whose mask ``table[x]`` lies inside m, one mask test per
    point: an interior on a space's minimal neighbourhoods."""
    r, bit, outside = 0, 1, ~m
    for t in table:
        if not t & outside:
            r |= bit
        bit <<= 1
    return r


def _unions(table: Sequence[int]) -> frozenset[int]:
    """Every union of table entries, the empty one included: the up-sets of
    the table's preorder, each produced once.

    The distinct entries are taken by increasing size, so when entry t comes
    up, the points strictly above its class (``t & done``) are already placed
    and its class (``t & ~done``) is minimal among the points placed so far.
    The opens listed so far therefore stay up-sets, and the new ones are
    exactly the old ones that hold all of ``above``, with the class added.
    """
    opens = [0]
    done = 0
    for t in sorted(set(table), key=int.bit_count):
        cls, above = t & ~done, t & done
        opens += [o | cls for o in opens if o & above == above]
        done |= t
    return frozenset(opens)


def _canonical(masks: Iterable[int]) -> list[int]:
    """Canonical order: by cardinality, then by mask, i.e. the key
    ``(bit_count, mask)``, as two stable sorts with no Python-level key."""
    return sorted(sorted(masks), key=int.bit_count)


def _missing(op: str, a: int, b: int, c: int) -> str:
    return (
        f"not closed under {op}: {points_from_mask(a)} and {points_from_mask(b)} "
        f"are open but {points_from_mask(c)} is missing"
    )


@dataclass(frozen=True)
class TopoSpace:
    n: int
    min_nbhds: tuple[int, ...]
    # listings made on first use and stored with object.__setattr__:
    # functools.cached_property writes through __dict__, which turns the
    # instance's inline attribute values into a dict and slows every later
    # attribute read on it
    _opens: Optional[frozenset[int]] = field(init=False, default=None, repr=False, compare=False)
    _sorted_opens: Optional[tuple[int, ...]] = field(
        init=False, default=None, repr=False, compare=False
    )
    _basis: Optional[tuple[int, ...]] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        """The table must be the up-sets of a preorder: one entry per point,
        inside the carrier, holding its own point and its points' entries."""
        table = tuple(self.min_nbhds)
        object.__setattr__(self, "min_nbhds", table)
        if self.n < 0:
            raise ValueError("need a nonnegative number of points")
        if len(table) != self.n:
            raise ValueError(f"need one minimal neighbourhood per point of {self.n}, got {len(table)}")
        full = full_mask(self.n)
        for x, m in enumerate(table):
            if m & ~full:
                raise ValueError(f"minimal neighbourhood of point {x} lies outside the carrier")
            if not m >> x & 1:
                raise ValueError(f"relation is not a preorder: missing reflexive pair ({x}, {x})")
        for x, m in enumerate(table):
            for y in iter_points(m):
                if table[y] & ~m:
                    z = next(iter_points(table[y] & ~m))
                    raise ValueError(
                        f"relation is not a preorder: {x}<={y} and {y}<={z} but not {x}<={z}"
                    )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_opens(cls, n: int, sets: Iterable[Iterable[int]]) -> "TopoSpace":
        """The space of exactly these opens; the one constructor that checks a family."""
        opens = frozenset(mask_from_points(s, n) for s in sets)
        full = full_mask(n)
        if full not in opens:
            raise ValueError("the whole carrier must be open")
        if 0 not in opens:
            raise ValueError("the empty set must be open")
        table = []
        for x in range(n):
            m = full
            for o in opens:
                if o >> x & 1:
                    if m & o not in opens:
                        raise ValueError(_missing("intersection", m, o, m & o))
                    m &= o
            table.append(m)
        # Each member is the union of its points' entries, so the family is
        # exactly the unions of the table, and hence a topology, iff adding
        # any one entry to any member stays inside it.
        for o in opens:
            for t in table:
                if o | t not in opens:
                    raise ValueError(_missing("union", o, t, o | t))
        return cls(n, tuple(table))

    @classmethod
    def from_subbasis(cls, n: int, sets: Iterable[Iterable[int]]) -> "TopoSpace":
        """Smallest topology containing the given sets."""
        masks = [mask_from_points(s, n) for s in sets]
        full = full_mask(n)
        table = []
        for x in range(n):
            m = full
            for s in masks:
                if s >> x & 1:
                    m &= s
            table.append(m)
        return cls(n, tuple(table))

    @classmethod
    def from_preorder(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "TopoSpace":
        """Opens are the up-closed sets.  The relation must be given reflexive
        and transitive; anything else is rejected."""
        up = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) outside the carrier")
            up[x] |= 1 << y
        return cls(n, tuple(up))

    @classmethod
    def discrete(cls, n: int) -> "TopoSpace":
        return cls(n, tuple(1 << x for x in range(n)))

    @classmethod
    def indiscrete(cls, n: int) -> "TopoSpace":
        return cls(n, (full_mask(n),) * n)

    # -- queries ---------------------------------------------------------------

    @property
    def full(self) -> int:
        return full_mask(self.n)

    @property
    def opens(self) -> frozenset[int]:
        """Every open set: the unions of the table, listed on first use."""
        if self._opens is None:
            object.__setattr__(self, "_opens", _unions(self.min_nbhds))
        return self._opens

    def is_open(self, a: int) -> bool:
        return self.interior(a) == a

    def min_nbhd(self, x: int) -> int:
        return self.min_nbhds[x]

    def interior(self, a: int) -> int:
        """Largest open subset: the points whose minimal neighbourhood fits."""
        return fits(self.min_nbhds, a)

    def closure(self, a: int) -> int:
        """Least closed superset: the points whose minimal neighbourhood meets a."""
        return meets(self.min_nbhds, a)

    def opens_sorted(self) -> list[int]:
        """Canonical listing: by cardinality, then by mask (colexicographic on
        elements).  The order is computed once per space; each call returns a
        new list."""
        if self._sorted_opens is None:
            object.__setattr__(self, "_sorted_opens", tuple(_canonical(self.opens)))
        return list(self._sorted_opens)

    @property
    def minimal_basis(self) -> tuple[int, ...]:
        """The distinct minimal neighbourhoods, the least basis of the
        topology, in canonical order (computed once per space)."""
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(_canonical(set(self.min_nbhds))))
        return self._basis

    def specialization(self) -> list[tuple[int, int]]:
        """The preorder recovering this topology: x <= y iff y is in every
        open around x."""
        return [
            (x, y)
            for x in range(self.n)
            for y in iter_points(self.min_nbhds[x])
        ]

    # -- JSON -------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "points": self.n,
            "opens": [points_from_mask(o) for o in self.opens_sorted()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TopoSpace":
        if not isinstance(obj, dict):
            raise ValueError("a space must be a JSON object")
        if "points" not in obj:
            raise ValueError("a space has no 'points' field")
        n = obj["points"]
        if type(n) is not int or n < 0:
            raise ValueError("points must be a nonnegative integer")
        keys = [k for k in ("opens", "subbasis", "preorder") if k in obj]
        if len(keys) != 1:
            raise ValueError("topology needs exactly one of opens/subbasis/preorder")
        sets = obj[keys[0]]
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise ValueError(f"{keys[0]} must be a list of lists of points")
        if keys[0] == "opens":
            return cls.from_opens(n, obj["opens"])
        if keys[0] == "subbasis":
            return cls.from_subbasis(n, obj["subbasis"])
        if not all(len(p) == 2 and all(type(x) is int for x in p) for p in sets):
            raise ValueError("preorder must be a list of [x, y] integer pairs")
        return cls.from_preorder(n, [tuple(p) for p in sets])


# --- exhaustive enumerations ---------------------------------------------------


def all_preorders(n: int) -> Iterator[tuple[int, ...]]:
    """All preorders on n labeled points as up-set tables, deterministic order.

    Bit i of a relation's number says whether the i-th pair (x, y), x != y in
    row order, is related, and relations come out by increasing number.  The
    search decides the bits from the highest down, 0 before 1, and drops a
    prefix as soon as the transitive closure of its chosen pairs contains a
    pair fixed to 0, so every prefix it keeps has a completion: the closure.
    """
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    # (pairs left to decide, closure of the chosen pairs, pairs fixed to 0)
    stack = [(len(pairs), tuple(1 << x for x in range(n)), (0,) * n)]
    while stack:
        i, up, zero = stack.pop()
        if i == 0:
            yield up
            continue
        i -= 1
        x, y = pairs[i]
        # pushed first, so the 0 branch below runs first
        reach = up[y]
        joined = tuple(u | reach if u >> x & 1 else u for u in up)
        if all(u & z == 0 for u, z in zip(joined, zero)):
            stack.append((i, joined, zero))
        if not up[x] >> y & 1:
            fixed = list(zero)
            fixed[x] |= 1 << y
            stack.append((i, up, tuple(fixed)))


def all_topologies(n: int) -> Iterator[TopoSpace]:
    """All topologies on n labeled points, via the preorder correspondence."""
    for up in all_preorders(n):
        yield TopoSpace(n, up)


Move = tuple[Sequence, Sequence[int]]


def inverse(p: Sequence[int]) -> list[int]:
    """The inverse of the permutation p of 0..len(p)-1."""
    return sorted(range(len(p)), key=p.__getitem__)


def relabellings(n: int) -> tuple[Move, ...]:
    """One move on tables of masks per permutation of n points, in
    ``itertools.permutations`` order, so the identity comes first."""
    return tuple(
        (tuple(sum(1 << p[x] for x in iter_points(m)) for m in range(1 << n)), inverse(p))
        for p in itertools.permutations(range(n))
    )


def first_of_orbits(items: Iterable[tuple], moves: Sequence[Move]) -> Iterator[tuple]:
    """The items, in order, that no move sends an earlier kept item to.
    When the moves form a group and the items hold every image of each, that
    is the first item of each orbit."""
    seen: set[tuple] = set()
    for t in items:
        if t not in seen:
            yield t
            seen.update(tuple([act[t[x]] for x in inv]) for act, inv in moves)


@cache
def representative_topologies(n: int) -> tuple[TopoSpace, ...]:
    """One topology per homeomorphism class on n points: the first of each
    class in ``all_topologies`` order.  Built on first use and kept."""
    return tuple(TopoSpace(n, up) for up in first_of_orbits(all_preorders(n), relabellings(n)))


def all_functions(n: int) -> Iterator[tuple[int, ...]]:
    """All self-maps on n points, deterministic order."""
    return itertools.product(range(n), repeat=n)
