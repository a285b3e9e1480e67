"""Valuation-parallel judging agrees with the one-model path.

The oracle enumerates models one at a time (relations or topologies, then
program maps, then valuations in ``itertools.product`` order) and judges
each with the audit's ``_global_failure``.
"""

import itertools
from dataclasses import replace
from functools import reduce

import pytest

from topodyn import checker
from topodyn.checker import SubsetEvaluator, failures, valuation_chunks
from topodyn.formula import And, Atom, Not, Or, atoms, parse, postorder, program_names
from topodyn.formula import Test as ProgramTest
from topodyn.harness import _global_failure, _map_condition, search_countermodel
from topodyn.models import DTModel, PDLModel, SubsetModel
from topodyn.topology import all_functions, all_topologies

DT_CLASSES = ("dtl", "dtl_open", "dtl_continuous")
DT_FORMULAS = (
    "p -> box p",
    "box p -> p",
    "O[a] box p -> box O[a] p",
    "box O[a] p -> O[a] box p",
    "<a>p <-> dia O[a] p",
    "[a;a]p -> box p",
    "O[a] dia p -> dia O[a] p",
    "box (p | q) -> box p | dia q",
    "top",
)
CORPUS = [(c, f) for c in DT_CLASSES for f in DT_FORMULAS] + [
    ("pdl_serial", "[a]p -> <a>p"),
    ("pdl_serial", "<a>p -> [a]p"),
    ("pdl_serial", "<a;a>p -> <a>p"),
    ("pdl_serial", "[a](p | q) -> <a>p | [a]q"),
    ("pdl_serial", "p | ~p"),
    ("subset", "K p -> p"),
    ("subset", "p -> K p"),
    ("subset", "Khat p -> box p"),
    ("subset", "O[a] K p -> K O[a] p"),
    ("subset", "Khat O[a] p -> O[a] Khat p"),
    ("subset", "K box p -> box K p"),
    ("subset", "dia (p & q) -> K dia p"),
    ("subset", "O[a] top"),
    ("subset", "O[?(box p)] q -> q"),
    ("subset", "O[a;?(p)] p -> K p"),
    ("subset", "O[?(p);a;?(box q)] p -> O[a] p"),
    ("subset", "O[?(O[a] box p)] q -> Khat q"),
]


def labelled_blocks(model_class, n, progs):
    """Every labelled (space, program maps) block of the class on n points,
    as a model with an empty valuation: relations or topologies, then
    program maps."""
    if model_class == "pdl_serial":
        successors = list(itertools.product(range(1, 1 << n), repeat=n))
        for table in itertools.product(successors, repeat=len(progs)):
            yield PDLModel(n, progs, dict(zip(progs, table)), {}, serial_flag=True)
        return
    partial = model_class == "subset"
    make = SubsetModel if partial else DTModel
    condition = _map_condition(model_class)
    for space in all_topologies(n):
        fns = itertools.product([None, *range(n)], repeat=n) if partial else all_functions(n)
        fns = [fn for fn in fns if condition is None or condition(space, fn).holds]
        for chosen in itertools.product(fns, repeat=len(progs)):
            yield make(space, progs, dict(zip(progs, chosen)), {})


def one_model_stream(model_class, n, progs, names):
    """Every model of the class on n points, one at a time."""
    for block in labelled_blocks(model_class, n, progs):
        for masks in itertools.product(range(1 << n), repeat=len(names)):
            yield replace(block, val=dict(zip(names, masks)))


def key(model):
    if isinstance(model, PDLModel):
        return model.n, dict(model.rel), dict(model.val)
    return model.space, dict(model.fn), dict(model.val)


def failing_points(model, f):
    """Points where f fails; on subset models, at some scenario."""
    if isinstance(model, SubsetModel):
        ev = SubsetEvaluator(model)
        return reduce(int.__or__, (u & ~ev.extension(f, u) for u in model.space.opens), 0)
    if isinstance(model, PDLModel):
        return (1 << model.n) - 1 & ~checker.eval_pdl_relational(model, f)
    return (1 << model.n) - 1 & ~checker.eval_dtl(model, f)


def first_failure(f, model_class, bound):
    """The one-model search: the first model that fails, with its witness."""
    names = sorted(atoms(f))
    progs = tuple(sorted(program_names(f)))
    for n in range(1, bound + 1):
        for model in one_model_stream(model_class, n, progs, names):
            witness = _global_failure(model, f)
            if witness is not None:
                return model, witness
    return None


def same_result(got, want):
    if got is None or want is None:
        return got is want
    return key(got[0]) == key(want[0]) and got[1] == want[1]


@pytest.mark.parametrize("model_class, text", CORPUS)
def test_every_block_agrees_with_one_model_path(monkeypatch, model_class, text):
    """Up to 3 points: the verdict per point and valuation, and the search's
    first witness.  A test program's valuations are judged in groups that
    share its guard, and some chunk here splits into two or more."""
    groups = []
    guards = checker.ScenarioJudge.guards

    def recording(judge, body):
        got = guards(judge, body)
        groups.append(len(got))
        return got

    monkeypatch.setattr(checker.ScenarioJudge, "guards", recording)
    f = parse(text)
    names = sorted(atoms(f))
    progs = tuple(sorted(program_names(f)))
    first = None
    for n in (1, 2, 3):
        stream = one_model_stream(model_class, n, progs, names)
        for block in labelled_blocks(model_class, n, progs):
            for start, width, masks in valuation_chunks(n, names):
                bad = failures(block, f, masks, width)
                for v in range(width):
                    model = next(stream)
                    assert key(model) == key(replace(block, val=model.val))
                    want = failing_points(model, f)
                    got = sum((bad >> x * width + v & 1) << x for x in range(n))
                    assert got == want, (key(model), start + v)
                    assert (_global_failure(model, f) is None) == (want == 0)
                    if first is None and want:
                        first = model, _global_failure(model, f)
        assert next(stream, None) is None
    assert same_result(search_countermodel(f, 3, model_class), first)
    assert (max(groups, default=0) >= 2) == any(type(node) is ProgramTest for node in postorder(f))


@pytest.mark.parametrize("model_class, text", [
    ("dtl", "box (p | q) -> box p | box q"),
    ("dtl_open", "O[a] (p & q) -> box q"),
    ("pdl_serial", "[a](p | q) -> [a]p | [a]q"),
    ("subset", "dia (p & q) -> K dia p"),
    ("subset", "box p | box q -> K (p | q)"),
])
def test_search_is_the_same_with_tiny_chunks(monkeypatch, model_class, text):
    f = parse(text)
    want = first_failure(f, model_class, 3)
    assert want is not None
    monkeypatch.setattr(checker, "CHUNK_BITS", 1)
    assert same_result(search_countermodel(f, 3, model_class), want)


def test_first_failing_valuation_past_the_first_chunk():
    # one atom more than a chunk holds valuations for on one point; f fails
    # exactly when the first atom holds, valuation 2**CHUNK_BITS onwards
    k = checker.CHUNK_BITS + 1
    names = [f"p{i:02d}" for i in range(k)]
    f = Not(reduce(And, [Atom(names[0])] + [Or(Atom(a), Not(Atom(a))) for a in names[1:]]))
    chunks = list(valuation_chunks(1, names))
    assert len(chunks) == 2 and chunks[1][0] == 1 << checker.CHUNK_BITS
    got = search_countermodel(f, 1, "dtl")
    assert same_result(got, first_failure(f, "dtl", 1))
    model, point = got
    assert point == 0 and model.val == {a: int(a == names[0]) for a in names}
