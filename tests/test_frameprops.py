"""Continuity/openness deciders, scheme equivalence, countermodel builders."""

import itertools

import pytest

from topodyn.checker import eval_dtl
from topodyn.formula import parse
from topodyn.frameprops import (
    CONTINUITY,
    OPENNESS,
    FrameWitness,
    build_continuity_countermodel,
    build_openness_countermodel,
    is_continuous,
    is_open_map,
    is_serial,
    scheme_formula,
    validates_scheme,
)
from topodyn.models import DTModel, PDLModel, image
from topodyn.topology import TopoSpace, all_functions, all_topologies


ROTATE_SPACE = TopoSpace.from_opens(3, [[], [0], [0, 1], [0, 1, 2]])
ROTATE = (1, 2, 0)


# --- deciders -------------------------------------------------------------------


def test_identity_is_continuous_and_open():
    for space in all_topologies(3):
        ident = (0, 1, 2)
        assert is_continuous(space, ident).holds
        assert is_open_map(space, ident).holds


def test_constant_maps_are_continuous():
    for space in all_topologies(3):
        for c in range(3):
            assert is_continuous(space, (c, c, c)).holds


def test_swap_on_sierpinski(sierpinski):
    swap = (1, 0)
    rep = is_continuous(sierpinski, swap)
    assert not rep.holds
    assert rep.witness.open_set == 0b10  # preimage of {1} is {0}
    rep = is_open_map(sierpinski, swap)
    assert not rep.holds
    assert rep.witness.open_set == 0b10  # image of {1} is {0}


def test_rotate_example():
    # f = x+1 mod 3 on opens {}, {0}, {0,1}, X: preimage of {0} is {2}
    rep = is_continuous(ROTATE_SPACE, ROTATE)
    assert not rep.holds
    assert rep.witness.open_set == 0b001
    assert rep.witness.point == 2
    # image of {0} is {1}
    rep = is_open_map(ROTATE_SPACE, ROTATE)
    assert not rep.holds
    assert rep.witness.open_set == 0b001


def test_discrete_space_everything_holds():
    space = TopoSpace.discrete(3)
    for fn in all_functions(3):
        assert is_continuous(space, fn).holds
        assert is_open_map(space, fn).holds


def test_indiscrete_space_everything_continuous():
    space = TopoSpace.indiscrete(3)
    for fn in all_functions(3):
        assert is_continuous(space, fn).holds
        # open iff the image of the whole space is the whole space
        assert is_open_map(space, fn).holds == (set(fn) == {0, 1, 2})


def test_partial_open_maps(sierpinski):
    assert is_open_map(sierpinski, (None, None)).holds
    assert is_open_map(sierpinski, (None, 1)).holds
    assert not is_open_map(sierpinski, (None, 0)).holds


# --- the pointwise criteria against the every-open definitions ----------------------


def _preimage(fn, v):
    return sum(1 << x for x, y in enumerate(fn) if v >> y & 1)


def test_continuity_criteria_agree_on_three_points():
    pairs = [(space, fn) for space in all_topologies(3) for fn in all_functions(3)]
    assert len(pairs) == 783
    for space, fn in pairs:
        bad = [v for v in space.opens_sorted() if not space.is_open(_preimage(fn, v))]
        rep = is_continuous(space, fn)
        assert rep.holds == (not bad)
        if bad:
            a = _preimage(fn, bad[0])
            assert rep.witness.open_set == bad[0]
            assert (a & ~space.interior(a)) >> rep.witness.point & 1


def test_openness_criteria_agree_on_three_point_partial_maps():
    spaces = list(all_topologies(3))
    maps = list(itertools.product([None, 0, 1, 2], repeat=3))
    assert (len(spaces), len(maps)) == (29, 64)
    for space in spaces:
        for fn in maps:
            bad = [u for u in space.opens_sorted() if not space.is_open(image(fn, u))]
            rep = is_open_map(space, fn)
            assert rep.holds == (not bad)
            assert rep.witness == (FrameWitness(open_set=bad[0]) if bad else None)


def test_is_serial():
    m = PDLModel(2, ("a", "b"), {"a": (0b01, 0b10), "b": (0b11, 0)}, {}, serial_flag=False)
    rep = is_serial(m)
    assert not rep.holds
    assert rep.witness.program == "b" and rep.witness.point == 1
    m2 = PDLModel(2, ("a",), {"a": (0b01, 0b10)}, {}, serial_flag=False)
    assert is_serial(m2).holds


# --- scheme equivalence -----------------------------------------------------------


def test_scheme_formulas_print():
    assert parse("O[pi] box p -> box O[pi] p") == scheme_formula(CONTINUITY)
    assert parse("box O[pi] p -> O[pi] box p") == scheme_formula(OPENNESS)


def test_scheme_matches_semantics_two_points():
    # exhaustive at n=2; the three-point sweep lives in the acceptance suite
    for space in all_topologies(2):
        for fn in all_functions(2):
            assert validates_scheme(space, fn, CONTINUITY).holds == is_continuous(space, fn).holds
            assert validates_scheme(space, fn, OPENNESS).holds == is_open_map(space, fn).holds


def test_scheme_failure_carries_witness():
    rep = validates_scheme(ROTATE_SPACE, ROTATE, CONTINUITY)
    assert not rep.holds
    model = DTModel(ROTATE_SPACE, ("pi",), {"pi": ROTATE}, {"p": rep.witness.valuation})
    ext = eval_dtl(model, scheme_formula(CONTINUITY))
    assert not ext >> rep.witness.point & 1


def first_scheme_failure(space, fn, kind):
    """(valuation, point) of the least valuation of p refuting the scheme, and
    the least point under it, judging one valuation at a time."""
    for v in range(1 << space.n):
        model = DTModel(space, ("pi",), {"pi": fn}, {"p": v})
        missing = space.full & ~eval_dtl(model, scheme_formula(kind))
        if missing:
            return v, (missing & -missing).bit_length() - 1
    return None


def test_scheme_witness_is_the_least_valuation_then_point():
    pairs = [(space, fn) for space in all_topologies(3) for fn in all_functions(3)]
    assert len(pairs) == 783
    for space, fn in pairs:
        for kind in (CONTINUITY, OPENNESS):
            rep = validates_scheme(space, fn, kind)
            want = first_scheme_failure(space, fn, kind)
            got = None if rep.holds else (rep.witness.valuation, rep.witness.point)
            assert got == want


def test_unknown_scheme_kind(sierpinski):
    with pytest.raises(ValueError, match="unknown scheme"):
        validates_scheme(sierpinski, (0, 1), "density")


# --- countermodel builders -----------------------------------------------------------


def test_continuity_countermodel_swap(sierpinski):
    assert build_continuity_countermodel(sierpinski, (1, 0)) == (0b10, 0)


def test_openness_countermodel_swap(sierpinski):
    assert build_openness_countermodel(sierpinski, (1, 0)) == (0b01, 1)


def test_continuity_countermodel_rotate():
    assert build_continuity_countermodel(ROTATE_SPACE, ROTATE) == (0b001, 2)


def test_openness_countermodel_rotate():
    assert build_openness_countermodel(ROTATE_SPACE, ROTATE) == (0b010, 0)


def test_builders_roundtrip_two_points():
    # wherever the property fails, the built pair refutes the scheme at the
    # point; wherever it holds, the builder declines
    cont = scheme_formula(CONTINUITY)
    opn = scheme_formula(OPENNESS)
    for space in all_topologies(2):
        for fn in all_functions(2):
            got = build_continuity_countermodel(space, fn)
            if is_continuous(space, fn).holds:
                assert got is None
            else:
                v, x = got
                model = DTModel(space, ("pi",), {"pi": fn}, {"p": v})
                assert not eval_dtl(model, cont) >> x & 1
            got = build_openness_countermodel(space, fn)
            if is_open_map(space, fn).holds:
                assert got is None
            else:
                v, x = got
                model = DTModel(space, ("pi",), {"pi": fn}, {"p": v})
                assert not eval_dtl(model, opn) >> x & 1
