"""Finite spaces as bitmask families.

Oracles here are deliberately naive: pairwise closure by fixpoint iteration,
interior as a max over an explicit scan of all opens.  The library computes
both through minimal-neighbourhood tables, so agreement is meaningful.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn.topology import (
    TopoSpace,
    _unions,
    all_functions,
    all_preorders,
    all_topologies,
    full_mask,
    iter_points,
    mask_from_points,
    points_from_mask,
    representative_topologies,
)


# --- naive oracles -------------------------------------------------------------


def closure_under_pairwise_ops(n: int, masks) -> frozenset[int]:
    fam = {0, full_mask(n)} | set(masks)
    while True:
        extra = set()
        for u, v in itertools.combinations(fam, 2):
            extra.add(u | v)
            extra.add(u & v)
        if extra <= fam:
            return frozenset(fam)
        fam |= extra


def union_closure(table) -> frozenset[int]:
    """Every union of table entries, by closing {0} under adding one entry
    at a time: each union is reached and looked up once per entry."""
    found = {0}
    todo = [0]
    while todo:
        o = todo.pop()
        for t in table:
            u = o | t
            if u not in found:
                found.add(u)
                todo.append(u)
    return frozenset(found)


def interior_by_scan(space: TopoSpace, a: int) -> int:
    best = 0
    for u in space.opens:
        if u & ~a == 0:
            best |= u
    return best


# --- construction ---------------------------------------------------------------


def test_from_opens_requires_whole_space():
    with pytest.raises(ValueError, match="carrier"):
        TopoSpace.from_opens(2, [[], [1]])


def test_from_opens_requires_empty_set():
    with pytest.raises(ValueError, match="empty set must be open"):
        TopoSpace.from_opens(2, [[1], [0, 1]])


def test_union_closure_is_checked():
    with pytest.raises(ValueError, match="union"):
        TopoSpace.from_opens(3, [[], [0], [1], [0, 1, 2]])
    # the empty set, the singletons and the carrier of 16 points
    with pytest.raises(ValueError, match="union"):
        TopoSpace.from_opens(16, [[], *([x] for x in range(16)), list(range(16))])


def test_intersection_closure_is_checked():
    with pytest.raises(ValueError, match="intersection"):
        TopoSpace.from_opens(3, [[], [0, 1], [1, 2], [0, 1, 2]])


@pytest.mark.parametrize("n, table, message", [
    (2, (0b01,), "one minimal neighbourhood per point of 2, got 1"),
    (2, (0b101, 0b10), "minimal neighbourhood of point 0 lies outside the carrier"),
    (2, (0b10, 0b10), r"relation is not a preorder: missing reflexive pair \(0, 0\)"),
    (3, (0b011, 0b110, 0b100), "relation is not a preorder: 0<=1 and 1<=2 but not 0<=2"),
], ids=["length", "carrier", "reflexive", "transitive"])
def test_table_must_be_the_up_sets_of_a_preorder(n, table, message):
    with pytest.raises(ValueError, match=message):
        TopoSpace(n, table)


def test_a_space_is_its_table():
    space = TopoSpace(3, (0b011, 0b010, 0b100))
    assert space == TopoSpace.from_opens(3, [[], [1], [2], [0, 1], [1, 2], [0, 1, 2]])
    assert space.opens == frozenset({0, 0b010, 0b100, 0b011, 0b110, 0b111})
    assert space.is_open(0b110) and not space.is_open(0b001)


def test_from_subbasis_worked_example():
    space = TopoSpace.from_subbasis(3, [[0, 1], [1, 2]])
    want = {0, 0b010, 0b011, 0b110, 0b111}
    assert space.opens == frozenset(want)


@settings(max_examples=150)
@given(st.integers(1, 5), st.data())
def test_from_subbasis_matches_pairwise_closure(n, data):
    k = data.draw(st.integers(0, 4))
    masks = [data.draw(st.integers(0, full_mask(n))) for _ in range(k)]
    space = TopoSpace.from_subbasis(n, [points_from_mask(m) for m in masks])
    assert space.opens == closure_under_pairwise_ops(n, masks)


def test_from_subbasis_idempotent():
    space = TopoSpace.from_subbasis(4, [[0, 1], [1, 2], [3]])
    again = TopoSpace.from_opens(4, [points_from_mask(u) for u in space.opens])
    assert again.opens == space.opens


def test_from_preorder_builds_a_long_chain():
    # x <= y on 0 < 1 < ... < 39: the opens are the 41 final segments
    n = 40
    space = TopoSpace.from_preorder(n, [(x, y) for x in range(n) for y in range(x, n)])
    assert len(space.opens) == n + 1
    assert space.min_nbhd(0) == full_mask(n)
    assert space.opens_sorted()[1] == 1 << (n - 1)


def test_discrete_and_indiscrete():
    assert len(TopoSpace.discrete(3).opens) == 8
    assert TopoSpace.indiscrete(3).opens == frozenset({0, 0b111})
    assert TopoSpace.discrete(0).opens == frozenset({0})


# --- interior / closure ----------------------------------------------------------


def test_sierpinski_interior_closure(sierpinski):
    # opens: {}, {1}, {0,1}; so {0} is closed and {1} is dense
    assert sierpinski.interior(0b01) == 0
    assert sierpinski.interior(0b10) == 0b10
    assert sierpinski.closure(0b01) == 0b01
    assert sierpinski.closure(0b10) == 0b11


def _close_to_preorder(n, pairs):
    rel = {(x, x) for x in range(n)} | set(pairs)
    while True:
        extra = {(x, w) for (x, y) in rel for (z, w) in rel if y == z} - rel
        if not extra:
            return sorted(rel)
        rel |= extra


def _random_space(data, n):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    return TopoSpace.from_preorder(n, _close_to_preorder(n, pairs))


@settings(max_examples=300)
@given(st.integers(1, 5), st.data())
def test_interior_matches_scan(n, data):
    space = _random_space(data, n)
    a = data.draw(st.integers(0, full_mask(n)))
    assert space.interior(a) == interior_by_scan(space, a)


@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_kuratowski_interior_laws(n, data):
    space = _random_space(data, n)
    x = full_mask(n)
    a = data.draw(st.integers(0, x))
    b = data.draw(st.integers(0, x))
    ia = space.interior(a)
    assert ia & ~a == 0
    assert space.interior(ia) == ia
    assert space.interior(a & b) == ia & space.interior(b)
    assert space.interior(x) == x


@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_closure_is_dual_of_interior(n, data):
    space = _random_space(data, n)
    x = full_mask(n)
    a = data.draw(st.integers(0, x))
    assert space.closure(a) == x & ~space.interior(x & ~a)
    assert space.closure(a) | a == space.closure(a)
    assert space.closure(space.closure(a)) == space.closure(a)


@settings(max_examples=200)
@given(st.integers(1, 6), st.data())
def test_open_iff_equals_interior(n, data):
    space = _random_space(data, n)
    a = data.draw(st.integers(0, full_mask(n)))
    assert space.is_open(a) == (space.interior(a) == a)
    assert space.is_open(a) == (a in space.opens)


def test_min_nbhd_is_least_open_neighbourhood():
    for space in all_topologies(3):
        for x in range(3):
            m = space.min_nbhd(x)
            assert space.is_open(m) and m >> x & 1
            for u in space.opens:
                if u >> x & 1:
                    assert m & ~u == 0


# --- preorder correspondence ------------------------------------------------------


def test_specialization_roundtrip_all_small_spaces():
    # Alexandrov duality: opens determine the preorder and vice versa
    for n in (1, 2, 3):
        for space in all_topologies(n):
            pairs = space.specialization()
            assert TopoSpace.from_preorder(n, pairs).opens == space.opens


def test_preorder_counts():
    assert sum(1 for _ in all_preorders(1)) == 1
    assert sum(1 for _ in all_preorders(2)) == 4
    assert sum(1 for _ in all_preorders(3)) == 29
    assert sum(1 for _ in all_preorders(4)) == 355
    assert sum(1 for _ in all_preorders(5)) == 6942


def filtered_preorders(n: int):
    """Every relation on n points by increasing number (bit i for the i-th
    pair x != y in row order), kept when it is transitive."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in range(1 << len(pairs)):
        up = [1 << x for x in range(n)]
        for i, (x, y) in enumerate(pairs):
            if bits >> i & 1:
                up[x] |= 1 << y
        if all(up[y] & ~up[x] == 0 for x in range(n) for y in iter_points(up[x])):
            yield tuple(up)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_preorders_match_the_filter_in_order(n):
    assert list(all_preorders(n)) == list(filtered_preorders(n))


def test_topology_counts_match_preorders():
    assert sum(1 for _ in all_topologies(3)) == 29
    assert sum(1 for _ in all_topologies(4)) == 355


def test_all_topologies_distinct_and_valid():
    seen = set()
    for space in all_topologies(3):
        assert space.opens not in seen
        seen.add(space.opens)
        assert TopoSpace.from_opens(3, [points_from_mask(u) for u in space.opens]).opens == space.opens


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumerated_spaces_equal_validated_ones(n):
    """Every enumerated space is the space of its own opens, checked as a
    family by ``from_opens``."""
    for space in [*all_topologies(n), *representative_topologies(n)]:
        checked = TopoSpace.from_opens(n, [points_from_mask(u) for u in space.opens])
        assert space == checked
        assert space.opens == checked.opens and space.min_nbhds == checked.min_nbhds


def test_all_functions_count():
    fns = list(all_functions(3))
    assert len(fns) == 27
    assert len(set(fns)) == 27


# --- helpers and serialization -----------------------------------------------------


def test_mask_helpers():
    assert mask_from_points([0, 2], 3) == 0b101
    assert points_from_mask(0b101) == [0, 2]
    assert list(iter_points(0b1010)) == [1, 3]
    with pytest.raises(ValueError):
        mask_from_points([3], 3)


def test_opens_sorted_canonical_order(sierpinski):
    assert sierpinski.opens_sorted() == [0, 0b10, 0b11]
    space = TopoSpace.discrete(2)
    assert space.opens_sorted() == [0, 0b01, 0b10, 0b11]


def test_opens_sorted_returns_a_new_list_each_call(sierpinski):
    first = sierpinski.opens_sorted()
    first.clear()
    assert sierpinski.opens_sorted() == [0, 0b10, 0b11]


def test_minimal_basis_is_the_distinct_entries_in_canonical_order():
    for n in (1, 2, 3, 4):
        for space in all_topologies(n):
            entries = {space.min_nbhd(x) for x in range(n)}
            assert list(space.minimal_basis) == [u for u in space.opens_sorted() if u in entries]


# --- listing the opens ------------------------------------------------------------


def _assert_listing_matches_oracle(space):
    assert _unions(space.min_nbhds) == union_closure(space.min_nbhds)
    assert type(space.opens) is frozenset
    assert space.opens_sorted() == sorted(space.opens, key=lambda o: (o.bit_count(), o))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_unions_match_union_closure_on_every_small_topology(n):
    for space in all_topologies(n):
        _assert_listing_matches_oracle(space)


@st.composite
def spaces_with_equivalent_points(draw):
    """A preorder on classes, each class an indiscrete block of 1-3 points
    placed at drawn positions, taken once or as two disjoint copies: at most
    12 points, often with equivalent points."""
    copies = draw(st.integers(1, 2))
    cap = 12 // copies
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=cap))
    while sum(sizes) > cap:
        sizes.pop()
    k = len(sizes)
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=16))
    above = TopoSpace.from_preorder(k, _close_to_preorder(k, pairs)).min_nbhds
    block = [c for c, size in enumerate(sizes) for _ in range(size)]
    m = len(block)
    order = draw(st.permutations(range(copies * m)))
    # point order[copy * m + i] lies in class block[i] of that copy
    placed = [(x, *divmod(j, m)) for j, x in enumerate(order)]
    members = [[0] * k for _ in range(copies)]
    for x, copy, i in placed:
        members[copy][block[i]] |= 1 << x
    table = [0] * (copies * m)
    for x, copy, i in placed:
        for c in iter_points(above[block[i]]):
            table[x] |= members[copy][c]
    return TopoSpace(copies * m, table)


@settings(max_examples=200, deadline=None)
@given(spaces_with_equivalent_points())
def test_unions_match_union_closure_with_equivalent_points(space):
    _assert_listing_matches_oracle(space)


def test_json_roundtrip():
    space = TopoSpace.from_subbasis(4, [[0, 1], [2]])
    again = TopoSpace.from_json(space.to_json())
    assert again.n == space.n and again.opens == space.opens
