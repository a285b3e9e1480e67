"""The three evaluators.

Frozen extensions below are derived by hand from the definitions: existential
preimage for the relational reading, closure/interior of preimages for the
dynamic-topological one, and relativized extensions for subset spaces.
"""

from dataclasses import replace

import pytest

from topodyn import checker
from topodyn.checker import (
    SubsetEvaluator,
    eval_dtl,
    eval_pdl_relational,
    eval_subset,
    state_extension,
    translate_pdl,
)
from topodyn.formula import (
    FragmentViolation, Know, Language, Node, atoms, format_formula, parse, parse_formulas,
    postorder, substitute,
)
from topodyn.harness import GenConfig, gen_formula, gen_model, _all_maps, _derived_rng
from topodyn.models import DTModel, PDLModel, Scenario, SubsetModel, image, preimage, validate
from topodyn.topology import TopoSpace, all_topologies, full_mask, iter_points
from topodyn.transform import build_network_space


# --- relational ------------------------------------------------------------------


def test_relational_diamond(two_point_pdl):
    # rand reaches both points from both points
    assert eval_pdl_relational(two_point_pdl, parse("<rand>zero")) == 0b11
    assert eval_pdl_relational(two_point_pdl, parse("<rand>zero & <rand>one")) == 0b11
    assert eval_pdl_relational(two_point_pdl, parse("[rand]zero")) == 0


def test_relational_box_identity(two_point_pdl):
    assert eval_pdl_relational(two_point_pdl, parse("<at>zero")) == 0b01
    assert eval_pdl_relational(two_point_pdl, parse("[at]zero")) == 0b01


def test_relational_seq(two_point_pdl):
    assert eval_pdl_relational(two_point_pdl, parse("<rand;at>one")) == 0b11
    assert eval_pdl_relational(two_point_pdl, parse("<at;at>one")) == 0b10


def test_relational_seq_equals_nesting():
    for i in range(100):
        m = gen_model(GenConfig(seed=200, max_points=5, num_programs=2, model_class="pdl_serial"), index=i)
        rng = _derived_rng(200, 1, i)
        f = gen_formula(rng, ("p", "q"), m.alphabet, modal_budget=2, size_budget=5,
                        lang=Language.PDL, allow_seq=False)
        a, b = m.alphabet[0], m.alphabet[1]
        seq = substitute(parse(f"<{a};{b}>p"), {"p": f})
        nested = substitute(parse(f"<{a}><{b}>p"), {"p": f})
        assert eval_pdl_relational(m, seq) == eval_pdl_relational(m, nested)


def test_relational_duality():
    for i in range(60):
        m = gen_model(GenConfig(seed=201, max_points=5, model_class="pdl_serial"), index=i)
        rng = _derived_rng(201, 1, i)
        f = gen_formula(rng, ("p", "q", "r"), m.alphabet, lang=Language.PDL)
        a = m.alphabet[0]
        dia = substitute(parse(f"<{a}>p"), {"p": f})
        box = substitute(parse(f"~[{a}]~p"), {"p": f})
        assert eval_pdl_relational(m, dia) == eval_pdl_relational(m, box)


def test_relational_seriality_gives_d():
    for i in range(60):
        m = gen_model(GenConfig(seed=202, max_points=5, model_class="pdl_serial"), index=i)
        a = m.alphabet[0]
        f = parse(f"[{a}]p -> <{a}>p")
        assert eval_pdl_relational(m, f) == full_mask(m.n)


def test_relational_missing_atom_is_empty(two_point_pdl):
    assert eval_pdl_relational(two_point_pdl, parse("nosuch")) == 0
    assert eval_pdl_relational(two_point_pdl, parse("~nosuch")) == 0b11


def test_relational_unknown_program(two_point_pdl):
    with pytest.raises(ValueError, match="unknown program"):
        eval_pdl_relational(two_point_pdl, parse("<zz>top"))


def test_relational_rejects_test_programs(two_point_pdl):
    with pytest.raises(ValueError, match="no relational interpretation"):
        eval_pdl_relational(two_point_pdl, parse("<?(p)>one"))
    with pytest.raises(ValueError, match="no relational semantics"):
        eval_pdl_relational(two_point_pdl, parse("O[?(p)] one"))


# --- dynamic-topological ------------------------------------------------------------


def test_dtl_swap_extensions(swap_dt):
    # v(p) = {1}, f = swap, opens {}, {1}, {0,1}
    assert eval_dtl(swap_dt, parse("O[a] p")) == 0b01
    assert eval_dtl(swap_dt, parse("<a>p")) == 0b01  # cl({0}) = {0}
    assert eval_dtl(swap_dt, parse("[a]p")) == 0  # int({0}) = {}
    assert eval_dtl(swap_dt, parse("box p")) == 0b10
    assert eval_dtl(swap_dt, parse("dia p")) == 0b11


def test_dtl_continuity_instance_fails_for_swap(swap_dt):
    # swap is not continuous here: the preimage of {1} is {0}
    inst = parse("O[a] box p -> box O[a] p")
    assert eval_dtl(swap_dt, inst) == 0b10


def test_dtl_next_distributes_over_seq():
    for i in range(80):
        m = gen_model(GenConfig(seed=210, max_points=5, num_programs=2, model_class="dtl"), index=i)
        rng = _derived_rng(210, 1, i)
        f = gen_formula(rng, ("p", "q"), m.alphabet, lang=Language.BOX_NEXT, allow_seq=False)
        a, b = m.alphabet
        seq = substitute(parse(f"O[{a};{b}] p"), {"p": f})
        nested = substitute(parse(f"O[{a}] O[{b}] p"), {"p": f})
        assert eval_dtl(m, seq) == eval_dtl(m, nested)


def test_dtl_translation_agrees_with_direct_reading():
    for i in range(200):
        m = gen_model(GenConfig(seed=211, max_points=5, num_programs=2, model_class="dtl"), index=i)
        rng = _derived_rng(211, 1, i)
        f = gen_formula(rng, ("p", "q", "r"), m.alphabet, lang=Language.PDL)
        assert eval_dtl(m, f) == eval_dtl(m, translate_pdl(f))


def test_dtl_duality():
    for i in range(60):
        m = gen_model(GenConfig(seed=212, max_points=5, model_class="dtl"), index=i)
        rng = _derived_rng(212, 1, i)
        f = gen_formula(rng, ("p", "q"), m.alphabet, lang=Language.BOX_NEXT)
        dia = substitute(parse("dia p"), {"p": f})
        box = substitute(parse("~box ~p"), {"p": f})
        assert eval_dtl(m, dia) == eval_dtl(m, box)
        a = m.alphabet[0]
        dpdl = substitute(parse(f"<{a}>p"), {"p": f})
        bpdl = substitute(parse(f"~[{a}]~p"), {"p": f})
        assert eval_dtl(m, dpdl) == eval_dtl(m, bpdl)


def test_dtl_seq_diamond_containment():
    # <a;b> entails <a><b> on every model; the converse needs open maps
    for i in range(300):
        m = gen_model(GenConfig(seed=213, max_points=5, num_programs=2, model_class="dtl"), index=i)
        a, b = m.alphabet
        seq = eval_dtl(m, parse(f"<{a};{b}>p"))
        nested = eval_dtl(m, parse(f"<{a}><{b}>p"))
        assert seq & ~nested == 0
        bseq = eval_dtl(m, parse(f"[{a};{b}]p"))
        bnested = eval_dtl(m, parse(f"[{a}][{b}]p"))
        assert bnested & ~bseq == 0


def test_dtl_seq_diamond_equality_on_open_maps():
    for i in range(300):
        m = gen_model(GenConfig(seed=214, max_points=5, num_programs=2, model_class="dtl_open"), index=i)
        a, b = m.alphabet
        assert eval_dtl(m, parse(f"<{a};{b}>p")) == eval_dtl(m, parse(f"<{a}><{b}>p"))
        assert eval_dtl(m, parse(f"[{a};{b}]p")) == eval_dtl(m, parse(f"[{a}][{b}]p"))


def test_dtl_seq_can_be_strict_without_openness(swap_dt):
    # f_a = swap (not continuous), f_b = identity, v(p) = {1}:
    # <a;b>p = cl(swap^-1({1})) = cl({0}) = {0}
    # <a><b>p = cl(swap^-1(cl({1}))) = cl(swap^-1({0,1})) = {0,1}
    m = DTModel(swap_dt.space, ("a", "b"), {"a": (1, 0), "b": (0, 1)}, {"p": 0b10})
    assert eval_dtl(m, parse("<a;b>p")) == 0b01
    assert eval_dtl(m, parse("<a><b>p")) == 0b11


def test_dtl_rejects_knowledge(swap_dt):
    with pytest.raises(FragmentViolation, match="subset-space"):
        eval_dtl(swap_dt, parse("K p"))


# --- subset space ---------------------------------------------------------------------


def test_subset_knowledge_depends_on_scenario_set(const1_subset):
    # v(p) = {1}: within the whole space p is not known, within {1} it is
    assert not eval_subset(const1_subset, parse("K p"), Scenario(1, 0b11))
    assert eval_subset(const1_subset, parse("K p"), Scenario(1, 0b10))
    assert eval_subset(const1_subset, parse("Khat p"), Scenario(0, 0b11))


def test_subset_box_and_dia(const1_subset):
    assert eval_subset(const1_subset, parse("box p"), Scenario(1, 0b11))
    assert not eval_subset(const1_subset, parse("box p"), Scenario(0, 0b11))
    assert eval_subset(const1_subset, parse("dia p"), Scenario(0, 0b11))


def test_subset_knowable_but_not_known(const1_subset):
    # the classic shape: not known now, but known after shrinking to {1}
    s = Scenario(1, 0b11)
    assert not eval_subset(const1_subset, parse("K p"), s)
    assert eval_subset(const1_subset, parse("dia box p"), s)


def test_subset_next_moves_the_scenario(const1_subset):
    # a is constant 1, so O[a] p holds wherever a is defined
    assert eval_subset(const1_subset, parse("O[a] p"), Scenario(0, 0b11))
    assert eval_subset(const1_subset, parse("K O[a] p"), Scenario(1, 0b11))


def test_subset_next_undefined_is_false(sierpinski):
    m = SubsetModel(sierpinski, ("a",), {"a": (None, None)}, {"p": 0b11})
    assert not eval_subset(m, parse("O[a] top"), Scenario(1, 0b11))
    assert eval_subset(m, parse("~O[a] top"), Scenario(1, 0b11))


def test_subset_partiality_identity():
    # O[a]~f is equivalent to O[a]top & ~O[a]f: partial maps have one image
    for i in range(80):
        m = gen_model(GenConfig(seed=220, max_points=5, model_class="subset"), index=i)
        rng = _derived_rng(220, 1, i)
        f = gen_formula(rng, ("p", "q"), m.alphabet, lang=Language.K_BOX_NEXT)
        a = m.alphabet[0]
        lhs = substitute(parse(f"O[{a}] ~p"), {"p": f})
        rhs = substitute(parse(f"O[{a}] top & ~O[{a}] p"), {"p": f})
        ev = SubsetEvaluator(m)
        for u in m.space.opens_sorted():
            assert ev.extension(lhs, u) == ev.extension(rhs, u)


def test_subset_khat_duality():
    for i in range(60):
        m = gen_model(GenConfig(seed=221, max_points=5, model_class="subset"), index=i)
        rng = _derived_rng(221, 1, i)
        f = gen_formula(rng, ("p", "q"), m.alphabet, lang=Language.K_BOX_NEXT)
        lhs = substitute(parse("Khat p"), {"p": f})
        rhs = substitute(parse("~K ~p"), {"p": f})
        ev = SubsetEvaluator(m)
        for u in m.space.opens_sorted():
            assert ev.extension(lhs, u) == ev.extension(rhs, u)


def test_subset_knowledge_is_point_independent():
    # ext(K f, U) is {} or all of U, never a proper nonempty part
    for i in range(60):
        m = gen_model(GenConfig(seed=222, max_points=5, model_class="subset"), index=i)
        rng = _derived_rng(222, 1, i)
        f = gen_formula(rng, ("p", "q", "r"), m.alphabet, lang=Language.K_BOX_NEXT)
        ev = SubsetEvaluator(m)
        for u in m.space.opens_sorted():
            assert ev.extension(Know(f), u) in (0, u)


def test_box_next_fragment_is_scenario_set_independent():
    # within the box/next fragment the scenario set is irrelevant;
    # identity and the empty map are open on every space
    texts = ("p", "box p", "dia p", "O[a] p", "O[b] p", "O[a] box (p | q)", "box O[a] dia q")
    formulas = [parse(t) for t in texts]
    for space in all_topologies(3):
        ident = tuple(range(3))
        empty = (None, None, None)
        for vp in (0b101, 0b010):
            m = SubsetModel(space, ("a", "b"), {"a": ident, "b": empty}, {"p": vp, "q": 0b011})
            ev = SubsetEvaluator(m)
            for f in formulas:
                absolute = state_extension(m, f)
                for u in space.opens_sorted():
                    assert ev.extension(f, u) == absolute & u


def test_state_extension_requires_fragment(const1_subset):
    with pytest.raises(FragmentViolation, match="fragment"):
        state_extension(const1_subset, parse("K p"))


def test_subset_rejects_relational_modalities(const1_subset):
    with pytest.raises(ValueError, match="subset-space"):
        eval_subset(const1_subset, parse("<a>p"), Scenario(1, 0b11))


def test_subset_scenario_is_validated(const1_subset):
    with pytest.raises(ValueError, match="not open"):
        eval_subset(const1_subset, parse("p"), Scenario(0, 0b01))


def test_subset_test_program_route(const1_subset):
    # O[?(p)] q: restrict to int(v(p)) = {1} and evaluate q there
    m = SubsetModel(const1_subset.space, ("a",), {"a": (1, 1)}, {"p": 0b10, "q": 0b10})
    assert eval_subset(m, parse("O[?(p)] q"), Scenario(1, 0b11))
    assert not eval_subset(m, parse("O[?(p)] q"), Scenario(0, 0b11))


def test_translate_rejects_non_relational():
    with pytest.raises(ValueError, match="relational"):
        translate_pdl(parse("box p"))


# --- program interpretations -------------------------------------------------------


@pytest.mark.parametrize("kind, text", [
    ("relational", "<a>p & [a]q & <a;b>p & [a;b]q | <b><a;a>p"),
    ("dynamic", "O[a]p & O[a]q & O[a;b]p & box O[a;b]q | O[b] O[a;a] p"),
    ("subset", "O[a]p & K O[a]q & O[a;b]p & O[?(p)]q | O[b] O[a;?(p)] O[?(box p)] p"),
])
def test_each_distinct_program_is_interpreted_once(monkeypatch, kind, text):
    """Equal programs under different modal nodes share one interpretation,
    and atomic and sequenced ones are found without comparing nodes."""
    f = parse(text)
    two = TopoSpace.from_opens(2, [[], [1], [0, 1]])
    cls, model = {
        "relational": (checker._Relational, PDLModel(
            2, ("a", "b"), {"a": (0b10, 0b11), "b": (0b01, 0b01)}, {"p": 0b10}, serial_flag=True)),
        "dynamic": (checker._DynamicTopological, DTModel(
            two, ("a", "b"), {"a": (1, 0), "b": (1, 1)}, {"p": 0b10})),
        "subset": (SubsetEvaluator, SubsetModel(
            two, ("a", "b"), {"a": (1, 1), "b": (None, 1)}, {"p": 0b10})),
    }[kind]
    interpreted = []
    interpret = cls.interpret

    def counting(self, prog):
        interpreted.append(str(prog))
        return interpret(self, prog)

    monkeypatch.setattr(cls, "interpret", counting)
    sem = cls(model)
    for c in ([0b01, 0b10, 0b11] if kind == "subset" else [0]):
        checker.evaluate(f, sem, c)
    assert sorted(interpreted) == sorted(set(interpreted))
    assert len(interpreted) == (6 if kind == "subset" else 4)

    if kind != "subset":  # no test program: no node comparisons at all
        compared = []
        eq = Node.__eq__
        monkeypatch.setattr(Node, "__eq__", lambda a, b: compared.append(a) or eq(a, b))
        checker.evaluate(parse(text), cls(model))
        assert compared == []


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_map_is_read_as_its_graph(n, partial):
    """A map is read as its graph: the successor f(x) at x, none where f is
    undefined.  On the discrete space every partial map is open, so every
    map is a program there: one-lane ``O[a]`` is its preimage, on a
    dynamic-topological model and at the whole carrier of a subset-space
    one, and a subset-space step from any open is its image."""
    space = TopoSpace(n, tuple(1 << x for x in range(n)))
    f = parse("O[a] p")
    for fn in _all_maps(n, partial):
        subset = SubsetModel(space, ("a",), {"a": fn}, {})
        ev = SubsetEvaluator(subset)
        assert [ev.step(f, u) for u in range(1 << n)] == [image(fn, u) for u in range(1 << n)]
        for m in range(1 << n):
            semantics = [SubsetEvaluator(replace(subset, val={"p": m}))]
            if not partial:
                semantics.append(checker._DynamicTopological(DTModel(space, ("a",), {"a": fn}, {"p": m})))
            for sem in semantics:
                assert sem.ones == 1
                assert checker.evaluate(f, sem, space.full) == preimage(fn, m), (fn, m)


# --- a list of formulas in one walk -------------------------------------------------


def _shared_lists(seed, count, lang, **options):
    """Lists of drawn formulas, each printed and parsed back through one
    table, so that the list's equal subterms are one object."""
    rng = _derived_rng(seed)
    for _ in range(count):
        texts = [format_formula(gen_formula(rng, ("p", "q"), ("a", "b"), lang=lang, **options))
                 for _ in range(rng.randint(1, 12))]
        table: dict = {}
        fs = parse_formulas("; ".join(texts), table)
        assert [format_formula(f) for f in fs] == texts
        yield fs, table


@pytest.mark.parametrize("model_class, lang, options", [
    ("pdl_serial", Language.PDL, {}),
    ("dtl", Language.PDL, {}),
    ("dtl", Language.BOX_NEXT, {}),
    ("subset", Language.K_BOX_NEXT, {"allow_tests": True}),
    ("network", Language.PDL, {"allow_seq": False, "modal_budget": 2}),
])
def test_a_list_judged_in_one_walk_is_each_formula_judged_alone(model_class, lang, options):
    semantics = {"pdl_serial": checker._Relational, "dtl": checker._DynamicTopological,
                 "subset": SubsetEvaluator}
    cfg = GenConfig(seed=31, max_points=3, num_programs=2,
                    model_class="pdl_serial" if model_class == "network" else model_class)
    shared = 0
    for i, (fs, table) in enumerate(_shared_lists(31, 60, lang, **options)):
        model = gen_model(cfg, i)
        if model_class == "network":
            space = build_network_space(model, 2)
            runs = [(lambda: space, 2)]  # the space memoizes no truth
        elif model_class == "subset":
            runs = [(lambda: SubsetEvaluator(model), u) for u in model.space.opens_sorted()]
        else:
            runs = [(lambda: semantics[model_class](model), 0)]
        for fresh, ctx in runs:
            assert checker.evaluate_all(fs, fresh(), ctx) == [
                checker.evaluate(f, fresh(), ctx) for f in fs]
        if model_class == "pdl_serial":  # the public entry transform judges its source by
            assert checker.eval_pdl_relational_all(model, fs) == [
                checker.eval_pdl_relational(model, f) for f in fs]
        shared += sum(len(postorder(f)) for f in fs) - len(table)
    assert shared > 0  # the lists do share subterms


# --- every scenario at once --------------------------------------------------------

JUDGED = ("K p", "Khat q", "box p", "dia q", "O[a;b] p", "O[?(box p)] q", "O[?(p)] K q",
          "O[a] K p -> K O[a] p", "Khat O[b] dia p", "K (p | O[a] ~q)")


def columns(judge, mask, width=1, v=0):
    """Per open, in ``opens_sorted`` order, the points where mask's bit v is set."""
    cols = len(judge.opens)
    return [sum((mask >> (x * cols + j) * width + v & 1) << x for x in range(judge.model.n))
            for j in range(cols)]


def test_judge_columns_are_the_per_open_extensions():
    """Each column of the judge is ``SubsetEvaluator.extension`` at its open,
    on generated models of up to 6 points with partial maps."""
    rng = _derived_rng(61, 0)
    partial = 0
    for i in range(200):
        model = gen_model(GenConfig(seed=61, max_points=6, model_class="subset"), i)
        partial += any(None in fn for fn in model.fn.values())
        judge, ev = checker.ScenarioJudge(model), SubsetEvaluator(model)
        formulas = [parse(t) for t in JUDGED] + [
            gen_formula(rng, ("p", "q"), model.alphabet, 3, 5, Language.K_BOX_NEXT, True, True)
            for _ in range(5)
        ]
        for f in formulas:
            want = [ev.extension(f, u) for u in judge.opens]
            assert columns(judge, checker.evaluate(f, judge)) == want, (i, format_formula(f))
    assert partial > 50


def test_judge_columns_under_a_chunk_of_valuations():
    """Column j under valuation v is the per-open extension on the model
    with valuation v."""
    for i in range(20):
        model = gen_model(GenConfig(seed=62, max_points=3, model_class="subset"), i)
        for f in [parse(t) for t in JUDGED]:
            names = sorted(atoms(f))
            for start, width, masks in checker.valuation_chunks(model.n, names):
                judge = checker.ScenarioJudge(model, masks, width)
                ext = checker.evaluate(f, judge)
                for v in range(width):
                    one = replace(model, val=checker.valuation(names, model.n, start + v))
                    want = [SubsetEvaluator(one).extension(f, u) for u in judge.opens]
                    assert columns(judge, ext, width, v) == want


def test_judge_refuses_a_map_that_is_not_open():
    # {1} is open, its image {0} is not
    model = SubsetModel(TopoSpace(2, (0b11, 0b10)), ("a",), {"a": (1, 0)}, {"p": 0b01})
    assert [v.kind for v in validate(model)] == ["OpennessFailure"]
    judge = checker.ScenarioJudge(model)
    assert checker.evaluate(parse("K p | ~K p"), judge) == judge.all  # the map is not read
    for run in (lambda f: judge.witness(f),
                lambda f: checker.failures(model, f, {"p": 0b01}, 1)):
        with pytest.raises(ValueError) as info:
            run(parse("O[a] p"))
        message = str(info.value)
        assert message.startswith("program a ") and message.endswith("not open")
        assert "\n" not in message


def test_subset_chunks_keep_masks_within_the_bound(monkeypatch):
    """A subset chunk holds at most 2**CHUNK_BITS / W valuations, W the number
    of opens, so every mask stays within n * 2**CHUNK_BITS bits."""
    space = TopoSpace.discrete(4)  # 16 opens, 256 valuations per chunk
    names = ["p", "q", "r"]
    assert [w for _, w, _ in checker.valuation_chunks(4, names, 16)] == [256] * 16
    assert next(checker.valuation_chunks(4, names, 5))[1] == 512
    assert next(checker.valuation_chunks(4, names, 5000))[1] == 1
    built = []

    class Recording(checker.ScenarioJudge):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((self.width, self.all.bit_length()))

    monkeypatch.setattr(checker, "ScenarioJudge", Recording)
    model = SubsetModel(space, ("a",), {"a": (1, 0, 3, None)}, {})
    f = parse("K (p | q | r) & O[a] top -> Khat r | p | q | O[a] ~K p | O[a] p")
    assert checker.least_failure(model, f, names) is None
    assert built == [(256, 4 << checker.CHUNK_BITS)] * 16
