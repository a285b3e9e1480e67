"""Model containers, structural validation, and program denotations."""

import itertools
import json
import random

import pytest

from topodyn.formula import FragmentViolation, parse, parse_program
from topodyn.formula import Test as ProgramTest
from topodyn.frameprops import is_open_map
from topodyn.harness import GenConfig, gen_model
from topodyn.models import (
    DTModel,
    PDLModel,
    Scenario,
    SubsetModel,
    compose,
    image,
    model_from_json,
    model_to_json,
    program_function,
    validate,
    validate_scenario,
)
from topodyn.topology import TopoSpace, all_topologies, full_mask, iter_points


def kinds(violations):
    return sorted(v.kind for v in violations)


# --- validation ------------------------------------------------------------------


def test_valid_models_have_no_violations(sierpinski, swap_dt, const1_subset, two_point_pdl):
    assert validate(swap_dt) == []
    assert validate(const1_subset) == []
    assert validate(two_point_pdl) == []


def test_pdl_seriality_flag():
    m = PDLModel(2, ("a",), {"a": (0b10, 0)}, {}, serial_flag=True)
    vs = validate(m)
    assert kinds(vs) == ["SerialityFailure"]
    assert vs[0].program == "a" and vs[0].point == 1
    # same relation, no seriality promise
    assert validate(PDLModel(2, ("a",), {"a": (0b10, 0)}, {}, serial_flag=False)) == []


def test_dt_model_must_be_total(sierpinski):
    m = DTModel(sierpinski, ("a",), {"a": (None, 0)}, {})
    vs = validate(m)
    assert kinds(vs) == ["TotalityFailure"]
    assert vs[0].point == 0


def test_subset_maps_must_be_open(sierpinski):
    # swap, and its partial restriction to 1, send the open {1} to {0},
    # which is not open
    for fn in [(1, 0), (None, 0)]:
        m = SubsetModel(sierpinski, ("a",), {"a": fn}, {})
        vs = validate(m)
        assert kinds(vs) == ["OpennessFailure"]
        assert vs[0].to_json() == {"kind": "OpennessFailure", "program": "a", "subset": [1]}


def test_subset_partial_maps_allowed(sierpinski):
    m = SubsetModel(sierpinski, ("a",), {"a": (None, 1)}, {})
    assert validate(m) == []


def test_alphabet_mismatches(sierpinski):
    m = DTModel(sierpinski, ("a", "b"), {"a": (0, 1), "c": (0, 1)}, {})
    assert kinds(validate(m)) == ["MissingProgram", "UnknownProgram"]


def test_valuation_out_of_range(sierpinski):
    m = DTModel(sierpinski, ("a",), {"a": (0, 1)}, {"p": 0b100})
    assert kinds(validate(m)) == ["ValuationOutOfRange"]


def test_successor_out_of_range():
    m = PDLModel(2, ("a",), {"a": (0b100, 0b01)}, {}, serial_flag=False)
    assert kinds(validate(m)) == ["SuccessorOutOfRange"]


def test_scenario_validation(sierpinski):
    validate_scenario(
        SubsetModel(sierpinski, ("a",), {"a": (None, 1)}, {}), Scenario(1, 0b10)
    )
    with pytest.raises(ValueError, match="not open"):
        validate_scenario(SubsetModel(sierpinski, ("a",), {"a": (None, 1)}, {}), Scenario(0, 0b01))
    with pytest.raises(ValueError, match="not in"):
        validate_scenario(SubsetModel(sierpinski, ("a",), {"a": (None, 1)}, {}), Scenario(0, 0b10))


# --- images and composition ---------------------------------------------------------


def test_image_examples():
    assert image((1, 0, None), 0b111) == 0b011
    assert image((None, None), 0b11) == 0
    assert image((2, 2, 2), 0b011) == 0b100


def test_compose_runs_left_then_right():
    swap = (1, 0)
    const0 = (0, 0)
    assert compose(swap, const0) == (0, 0)
    assert compose(const0, swap) == (1, 1)


def test_compose_propagates_undefined():
    assert compose((None, 1), (0, None)) == (None, None)
    assert compose((1, 0), (None, 0)) == (0, None)


def test_program_function_seq(sierpinski):
    m = DTModel(sierpinski, ("a", "b"), {"a": (1, 0), "b": (0, 0)}, {})
    assert program_function(m, parse_program("a;b")) == (0, 0)
    assert program_function(m, parse_program("b;a")) == (1, 1)


def test_program_function_associative():
    for i in range(50):
        m = gen_model(GenConfig(seed=77, max_points=4, num_programs=3, model_class="dtl"), index=i)
        a, b, c = m.alphabet
        left = program_function(m, parse_program(f"({a};{b});{c}"))
        right = program_function(m, parse_program(f"{a};({b};{c})"))
        assert left == right


def test_test_program_is_guarded_identity(sierpinski):
    m = SubsetModel(sierpinski, ("a",), {"a": (None, 1)}, {"p": 0b01})
    # int(v(p)) = int({0}) = {} so the test map is nowhere defined
    assert program_function(m, ProgramTest(parse("p"))) == (None, None)
    m2 = SubsetModel(sierpinski, ("a",), {"a": (None, 1)}, {"p": 0b11})
    assert program_function(m2, ProgramTest(parse("p"))) == (0, 1)


def test_test_program_image_is_open_restriction():
    # image of an open U under the test map is U /\ int([[phi]])
    for space in all_topologies(3):
        for vp in range(8):
            m = SubsetModel(space, (), {}, {"p": vp})
            fn = program_function(m, ProgramTest(parse("p")))
            guard = space.interior(vp)
            for u in space.opens:
                assert image(fn, u) == u & guard


def test_test_program_maps_are_open():
    bodies = [parse("p"), parse("box p"), parse("p & q"), parse("dia p -> q")]
    for space in all_topologies(3):
        for vp, vq in itertools.product(range(8), repeat=2):
            m = SubsetModel(space, (), {}, {"p": vp, "q": vq})
            for body in bodies:
                fn = program_function(m, ProgramTest(body))
                assert is_open_map(space, fn).holds


def test_open_maps_compose_to_open_maps():
    spaces = list(all_topologies(3))
    rng = random.Random(11)
    found = 0
    while found < 200:
        space = rng.choice(spaces)
        f = tuple(rng.choice([None, 0, 1, 2]) for _ in range(3))
        g = tuple(rng.choice([None, 0, 1, 2]) for _ in range(3))
        if not (is_open_map(space, f).holds and is_open_map(space, g).holds):
            continue
        found += 1
        assert is_open_map(space, compose(f, g)).holds


def test_dt_model_rejects_test_programs(swap_dt):
    with pytest.raises(ValueError, match="[Tt]est"):
        program_function(swap_dt, ProgramTest(parse("p")))


def test_program_function_unknown_name(swap_dt):
    with pytest.raises(ValueError, match="unknown program"):
        program_function(swap_dt, parse_program("zz"))


# --- JSON -----------------------------------------------------------------------------


def test_pdl_json_roundtrip(two_point_pdl):
    again = model_from_json(model_to_json(two_point_pdl))
    assert isinstance(again, PDLModel)
    assert again.n == two_point_pdl.n
    assert again.alphabet == two_point_pdl.alphabet
    assert again.rel == two_point_pdl.rel
    assert again.val == two_point_pdl.val
    assert again.serial_flag == two_point_pdl.serial_flag


def test_dtl_json_roundtrip(swap_dt):
    again = model_from_json(model_to_json(swap_dt))
    assert isinstance(again, DTModel)
    assert again.space.opens == swap_dt.space.opens
    assert again.fn == swap_dt.fn
    assert again.val == swap_dt.val


def test_subset_json_roundtrip(sierpinski):
    m = SubsetModel(sierpinski, ("a", "b"), {"a": (None, 1), "b": (1, 1)}, {"p": 0b10})
    again = model_from_json(model_to_json(m))
    assert isinstance(again, SubsetModel)
    assert again.fn == m.fn
    assert again.space.opens == m.space.opens


def test_json_roundtrip_generated_models():
    for i, cls in enumerate(("pdl_serial", "dtl", "subset", "dtl_open", "dtl_continuous")):
        m = gen_model(GenConfig(seed=31, max_points=5, model_class=cls), index=i)
        again = model_from_json(model_to_json(m))
        assert type(again) is type(m)
        assert model_to_json(again) == model_to_json(m)


def test_validate_order_and_model_json_are_pinned(sierpinski):
    """Every fault of a model, in report order, and the exact JSON (key order
    included) of one valid model of each kind."""
    dt = DTModel(
        sierpinski,
        ("a", "b", "c", "d"),
        {"a": (None, 0), "b": (0, 5), "c": (1,), "e": (0, 1)},
        {"p": 0b10, "q": 0b100},
    )
    # "a" is out of range at 0, so its openness is not decided
    subset = SubsetModel(
        sierpinski, ("a", "b", "c"), {"a": (5, 0), "b": (1, 0), "c": (None, 9, 1)}, {"q": 0b100}
    )
    pdl = PDLModel(2, ("a", "b"), {"a": (0b100, 0b01), "b": (0b10, 0)}, {"p": 0b1000}, serial_flag=True)
    assert [v.to_json() for v in validate(dt)] == [
        {"kind": "ValuationOutOfRange", "detail": "atom q"},
        {"kind": "MissingProgram", "program": "d"},
        {"kind": "UnknownProgram", "program": "e"},
        {"kind": "TotalityFailure", "program": "a", "point": 0},
        {"kind": "ValueOutOfRange", "program": "b", "point": 1},
        {"kind": "BadLength", "program": "c"},
    ]
    assert [v.to_json() for v in validate(subset)] == [
        {"kind": "ValuationOutOfRange", "detail": "atom q"},
        {"kind": "ValueOutOfRange", "program": "a", "point": 0},
        {"kind": "OpennessFailure", "program": "b", "subset": [1]},
        {"kind": "BadLength", "program": "c"},
    ]
    assert [v.to_json() for v in validate(pdl)] == [
        {"kind": "ValuationOutOfRange", "detail": "atom p"},
        {"kind": "SuccessorOutOfRange", "program": "a", "point": 0},
        {"kind": "SerialityFailure", "program": "b", "point": 1},
    ]

    space = '"space": {"points": 2, "opens": [[], [1], [0, 1]]}'
    valid = {
        DTModel(sierpinski, ("b", "a"), {"a": (1, 0), "b": (0, 0)}, {"p": 0b10, "o": 0}): (
            '{"type": "dtl", ' + space + ', "programs": {"b": {"map": [0, 0]}, '
            '"a": {"map": [1, 0]}}, "valuation": {"o": [], "p": [1]}}'
        ),
        SubsetModel(sierpinski, ("b", "a"), {"a": (None, 1), "b": (1, 1)}, {"p": 0b10}): (
            '{"type": "subset", ' + space + ', "programs": {"b": {"map": [1, 1]}, '
            '"a": {"map": [null, 1]}}, "valuation": {"p": [1]}}'
        ),
        PDLModel(2, ("rand", "at"), {"rand": (0b11, 0b11), "at": (0b01, 0b10)},
                 {"zero": 0b01, "one": 0b10}, serial_flag=True): (
            '{"type": "pdl", "points": 2, "serial": true, "programs": '
            '{"rand": {"rel": [[0, 0], [0, 1], [1, 0], [1, 1]]}, "at": {"rel": [[0, 0], [1, 1]]}}, '
            '"valuation": {"one": [1], "zero": [0]}}'
        ),
    }
    for model, text in valid.items():
        assert validate(model) == []
        assert json.dumps(model_to_json(model)) == text


def test_model_from_json_rejects_unknown_type():
    with pytest.raises(ValueError, match="model type"):
        model_from_json({"type": "nope"})


# --- misc ------------------------------------------------------------------------------


def test_full_mask_and_iter_points_agree():
    assert list(iter_points(full_mask(4))) == [0, 1, 2, 3]


def test_models_expose_point_count(sierpinski, swap_dt, const1_subset, two_point_pdl):
    assert swap_dt.n == 2
    assert const1_subset.n == 2
    assert two_point_pdl.n == 2
