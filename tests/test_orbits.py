"""One space per isomorphism class, and one tuple of program maps per orbit
under the space's homeomorphisms; on ``pdl_serial``, which has no space,
one tuple of serial relations per orbit under every relabelling.  One
routine, ``topology.first_of_orbits``, keeps all of them.

The orbit–stabilizer sum checks the representative lists: the orbit of a
table T on n points has n!/|Aut(T)| members, so pairwise non-isomorphic
representatives whose orbit sizes add up to the labelled count cover every
labelled table exactly once.  Burnside's lemma checks the kept tuples the
same way.  The search runs over the representatives' kept blocks alone; the
labelled blocks and the one-model search over every labelled model, kept in
test_valuations.py, are the reference for its blocks and its output.
"""

import contextlib
import io
import itertools
import math

import pytest

from topodyn import checker, cli, harness
from topodyn.formula import atoms, parse
from topodyn.frameprops import is_continuous, is_open_map
from topodyn.harness import _class_models
from topodyn.models import PDLModel
from topodyn.topology import (
    all_preorders,
    first_of_orbits,
    iter_points,
    relabellings as mask_moves,
    representative_topologies,
)

from test_valuations import first_failure, labelled_blocks, program_names


def relabel_masks(table, p):
    """Entry x moves to p[x], with its points mapped by p."""
    image = [0] * len(p)
    for x, m in enumerate(table):
        image[p[x]] = sum(1 << p[y] for y in iter_points(m))
    return tuple(image)


def relabel_map(fn, p):
    image = [None] * len(p)
    for x, y in enumerate(fn):
        image[p[x]] = None if y is None else p[y]
    return tuple(image)


def relabellings(table):
    return [relabel_masks(table, p) for p in itertools.permutations(range(len(table)))]


def check_orbits(reps, labelled):
    n = len(labelled[0])
    position = {t: i for i, t in enumerate(labelled)}
    # each is the first of its class in the labelled order, and they come in
    # that order
    firsts = [min(position[image] for image in relabellings(t)) for t in reps]
    assert firsts == [position[t] for t in reps] == sorted(firsts)
    # no two representatives are relabellings of each other
    assert len({min(relabellings(t)) for t in reps}) == len(reps)
    automorphisms = [sum(1 for image in relabellings(t) if image == t) for t in reps]
    assert sum(math.factorial(n) // a for a in automorphisms) == len(labelled)


@pytest.mark.parametrize("n, count, labelled", [
    (1, 1, 1), (2, 3, 4), (3, 9, 29), (4, 33, 355), (5, 139, 6942),
])
def test_topology_representatives(n, count, labelled):
    spaces = representative_topologies(n)
    assert len(spaces) == count
    tables = list(all_preorders(n))
    assert len(tables) == labelled
    check_orbits([s.min_nbhds for s in spaces], tables)
    assert representative_topologies(n) is spaces  # built once


def serial_tables(n):
    return list(itertools.product(range(1, 1 << n), repeat=n))


@pytest.mark.parametrize("n, count", [(1, 1), (2, 6), (3, 70), (4, 2340)])
def test_serial_representatives(n, count):
    labelled = serial_tables(n)
    reps = list(first_of_orbits(labelled, mask_moves(n)))
    assert len(reps) == count
    assert len(labelled) == ((1 << n) - 1) ** n
    check_orbits(reps, labelled)
    assert [b.rel["a"] for b in _class_models("pdl_serial", n, ("a",))] == reps


def test_orbit_representatives_keeps_the_first_met():
    # the discrete table, the three relabellings of "point x reaches every
    # point" on 3 points, and the indiscrete table
    tables = [(1, 2, 4), (7, 2, 4), (1, 7, 4), (1, 2, 7), (7, 7, 7)]
    assert list(first_of_orbits(tables, mask_moves(3))) == [(1, 2, 4), (7, 2, 4), (7, 7, 7)]


def block_key(block):
    """(tables of masks, program maps) of a block."""
    if isinstance(block, PDLModel):
        return tuple(block.rel[a] for a in block.alphabet), ()
    return (block.space.min_nbhds,), tuple(tuple(block.fn[a]) for a in block.alphabet)


def relabel(key, p):
    masks, maps = key
    return tuple(relabel_masks(t, p) for t in masks), tuple(relabel_map(fn, p) for fn in maps)


@pytest.mark.parametrize("model_class, n, progs", [
    *((c, 3, ("a",)) for c in harness.MODEL_CLASSES),
    ("pdl_serial", 2, ("a", "b")),
    ("dtl_open", 2, ("a", "b")),
    ("dtl", 2, ("a", "b")),
    ("dtl_continuous", 2, ("a", "b")),
    ("subset", 2, ("a", "b")),
])
def test_reduced_blocks_cover_the_labelled_ones(model_class, n, progs):
    """The searched blocks are labelled blocks, in the labelled order, and
    every labelled block is a relabelling of one of them."""
    labelled = [block_key(b) for b in labelled_blocks(model_class, n, progs)]
    reduced = [block_key(b) for b in _class_models(model_class, n, progs)]
    kept = set(reduced)
    assert len(kept) == len(reduced) < len(labelled)
    assert reduced == [k for k in labelled if k in kept]
    perms = list(itertools.permutations(range(n)))
    for k in labelled:
        assert any(relabel(k, p) in kept for p in perms), k


# --- program maps up to the homeomorphisms of their space -------------------------


CONDITIONS = {"dtl": None, "dtl_open": is_open_map, "dtl_continuous": is_continuous,
              "subset": is_open_map}


def homeomorphisms(space):
    table = space.min_nbhds
    return [p for p in itertools.permutations(range(space.n)) if relabel_masks(table, p) == table]


def class_maps(space, model_class):
    n = space.n
    values = [None, *range(n)] if model_class == "subset" else range(n)
    condition = CONDITIONS[model_class]
    return [fn for fn in itertools.product(values, repeat=n)
            if condition is None or condition(space, fn).holds]


def acting_groups(model_class, n):
    """(space, group, maps, relabel) for each space the search uses on n
    points: a representative space, its homeomorphisms, its maps of the
    class and the conjugation of a map; on pdl_serial, no space, every
    relabelling, the serial tables and the relabelling of a table."""
    if model_class == "pdl_serial":
        yield None, list(itertools.permutations(range(n))), serial_tables(n), relabel_masks
        return
    for space in representative_topologies(n):
        yield space, homeomorphisms(space), class_maps(space, model_class), relabel_map


def chosen_maps(block, progs):
    maps = block.rel if isinstance(block, PDLModel) else block.fn
    return tuple(maps[a] for a in progs)


def product_key(fn):
    """A map's place in product order, no image first."""
    return tuple(-1 if y is None else y for y in fn)


@pytest.mark.parametrize("model_class", [*CONDITIONS, "pdl_serial"])
@pytest.mark.parametrize("progs, sizes", [(("a",), (1, 2, 3, 4)), (("a", "b"), (1, 2, 3))])
def test_kept_tuples_are_one_per_orbit(model_class, progs, sizes):
    """Per space, the kept tuples of k maps number the orbits of its
    homeomorphism group G on k-tuples, (1/|G|) sum_p |Fix(p)|^k by
    Burnside's lemma; on up to 3 points, each is also the least of its
    conjugates, so each orbit is kept exactly once, by its first tuple.
    On pdl_serial G is every relabelling and the maps are serial tables, on
    up to 3 points: test_serial_representatives covers the 50625 tables on
    4 points."""
    for n in sizes:
        if model_class == "pdl_serial" and n > 3:
            continue
        blocks = list(_class_models(model_class, n, progs))
        for space, group, maps, relabel in acting_groups(model_class, n):
            fixed = sum(sum(1 for fn in maps if relabel(fn, p) == fn) ** len(progs)
                        for p in group)
            kept = [chosen_maps(b, progs) for b in blocks if getattr(b, "space", None) == space]
            assert fixed % len(group) == 0 and len(kept) == fixed // len(group)
            if n > 3:
                continue
            for chosen in kept:
                own = [product_key(fn) for fn in chosen]
                for p in group:
                    assert own <= [product_key(relabel(fn, p)) for fn in chosen]


def test_two_serial_programs_on_three_points():
    """Burnside's count (7^6 + 3 * 21^2 + 2 * 7^2) / 6 of the 343^2 pairs."""
    assert (117649 + 3 * 21**2 + 2 * 7**2) // 6 == 19845
    assert sum(1 for _ in _class_models("pdl_serial", 3, ("a", "b"))) == 19845


def test_one_program_dtl_on_four_points():
    assert len(representative_topologies(4)) * 4**4 == 8448
    assert sum(1 for _ in _class_models("dtl", 4, ("a",))) == 4041


@pytest.mark.parametrize("model_class, text", [
    ("dtl_open", "box O[a] p -> O[a] box p"),
    ("dtl_continuous", "O[a] box p -> box O[a] p"),
    ("subset", "O[a] K p -> K O[a] p"),
])
def test_a_second_search_filters_no_map(monkeypatch, model_class, text):
    """A space's maps are filtered once per process: the same refute, run
    again in-process, makes no map-condition call and prints the same bytes."""
    harness._class_maps.cache_clear()
    calls = []
    for name in ("is_open_map", "is_continuous"):
        decide = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda space, fn, decide=decide: calls.append(fn) or decide(space, fn))
    argv = ["refute", "-f", text, "--bound", "3", "--model-class", model_class]
    first = refute(argv)
    made = len(calls)
    assert made > 0
    assert refute(argv) == first
    assert len(calls) == made


# --- the reduced search against the labelled one ---------------------------------


def labelled_search(f, bound=4, model_class="dtl"):
    """The one-model search over every labelled model of every size."""
    return first_failure(f, model_class, bound)


# (model class, formula, bound): refutable and valid entries, bound 4 when
# the formula names no program and 3 when it does
CORPUS = [
    ("dtl", "p -> box p", 4),
    ("dtl", "box p -> p", 4),
    ("dtl", "dia box p -> box dia p", 4),
    ("dtl", "box (p | q) -> box p | box q", 4),
    ("dtl", "box box p <-> box p", 4),
    ("dtl", "O[a] box p -> box O[a] p", 3),
    ("dtl", "O[a] (p & q) <-> O[a] p & O[a] q", 3),
    ("dtl", "<a;b>p <-> <a><b>p", 3),
    ("dtl", "O[a] p -> O[b] p", 3),
    ("dtl_open", "p -> O[a] p", 3),
    ("dtl_open", "box O[a] p -> O[a] box p", 3),
    ("dtl_open", "O[a] dia p -> dia O[a] p", 3),
    ("dtl_open", "dia box p -> p", 4),
    ("dtl_open", "dia box p -> box dia p", 4),
    ("dtl_continuous", "box O[a] p -> O[a] box p", 3),
    ("dtl_continuous", "O[a] box p -> box O[a] p", 3),
    ("dtl_continuous", "dia p -> box p", 4),
    ("pdl_serial", "[a]p -> <a>p", 3),
    ("pdl_serial", "<a>p -> [a]p", 3),
    ("pdl_serial", "<a>[a]p -> [a]<a>p", 3),
    ("pdl_serial", "<a;b>p -> <b;a>p", 3),
    ("pdl_serial", "[a]p & [b]q -> [a](p | q)", 2),
    ("pdl_serial", "p | ~p", 4),
    ("pdl_serial", "p -> q", 4),
    ("subset", "K p -> p", 4),
    ("subset", "p -> K p", 4),
    ("subset", "Khat p -> box p", 4),
    ("subset", "dia box p -> box dia p", 4),
    ("subset", "O[a] K p -> K O[a] p", 3),
    ("subset", "O[a] ~p -> ~O[a] p", 3),
    ("subset", "O[a] top", 3),
    ("subset", "O[?(box p)] q -> q", 3),
    ("subset", "O[?(box p)] p -> K p", 3),
    ("subset", "O[a;?(p)] p -> K p", 3),
    ("subset", "O[?(p)] box p -> box O[?(p)] p", 3),
]


def refute(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("model_class, text, bound", CORPUS)
def test_reduced_search_prints_what_the_labelled_one_does(monkeypatch, model_class, text, bound):
    argv = ["refute", "-f", text, "--bound", str(bound), "--model-class", model_class]
    got = refute(argv)
    monkeypatch.setattr(harness, "search_countermodel", labelled_search)
    assert got == refute(argv)


@pytest.mark.parametrize("model_class, text, bound", CORPUS)
def test_no_block_is_judged_twice(monkeypatch, model_class, text, bound):
    """The search hands ``checker.least_failure`` batches of one carrier
    size that run through the blocks of ``_class_models`` in order: each
    block up to the countermodel's is judged once, and past it only the
    rest of its own batch."""
    batches = []
    least_failure = checker.least_failure

    def recording(batch, *args):
        batches.append([(block.n, block_key(block)) for block in batch])
        return least_failure(batch, *args)

    monkeypatch.setattr(checker, "least_failure", recording)
    f = parse(text)
    found = harness.search_countermodel(f, bound, model_class)
    progs = tuple(sorted(program_names(f)))
    last = found[0].n if found else bound
    expected = []
    for n in range(1, last + 1):
        expected += [(n, block_key(b)) for b in _class_models(model_class, n, progs)]
    judged = [block for batch in batches for block in batch]
    assert all(len({n for n, _ in batch}) == 1 for batch in batches)
    assert judged == expected[:len(judged)]
    if found:
        end = expected.index((last, block_key(found[0]))) + 1
        # the countermodel's batch is the last, and holds its block
        assert len(judged) - len(batches[-1]) < end <= len(judged)
    else:
        assert len(judged) == len(expected)


@pytest.mark.parametrize("chunk_bits", [checker.CHUNK_BITS, 1, 3])
@pytest.mark.parametrize("model_class, text, bound", CORPUS)
def test_a_batch_judges_each_block_as_it_would_alone(monkeypatch, chunk_bits, model_class, text,
                                                     bound):
    """Block b's lanes of a batch's failures are the block's failures when it
    is judged alone, on up to 3 points.  Batches start at a carrier's second
    block here, so that small carriers make some.  At 2**1 lanes every batch
    is one block, whose valuations come in chunks; at 2**3 a batch fills the
    lanes and ends inside a space's run of blocks."""
    monkeypatch.setattr(checker, "CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(harness, "_ALONE", 1)
    f = parse(text)
    names = sorted(atoms(f))
    progs = tuple(sorted(program_names(f)))
    for n in range(1, min(bound, 3) + 1):
        for batch in harness._batches(model_class, n, progs, names):
            assert len(batch) <= checker.batch_room(batch[0], names)
            columns = len(batch[0].space.opens) if model_class == "subset" else 1
            chunks = checker.valuation_chunks(n, names, columns, len(batch))
            alone_chunks = checker.valuation_chunks(n, names, columns)
            for (start, width, masks), alone in zip(chunks, alone_chunks, strict=True):
                assert alone[:2] == (start, width)
                bad = checker.failures(batch[0], f, masks, width, *batch[1:])
                lanes, ones = len(batch) * width, (1 << width) - 1
                for b, block in enumerate(batch):
                    mine = sum((bad >> x * lanes + b * width & ones) << x * width for x in range(n))
                    assert mine == checker.failures(block, f, alone[2], width)
