"""Traversal, structural hashes and the shared evaluator core.

Folds visit a formula's node objects in post-order, as ``postorder`` lists
them.  The evaluator core walks the tree itself, switching context where a
modality reads its body at another one.  These tests pin the traversal, that
the walk gives the extensions a fold gives, and that the random formula
stream is unchanged.
"""

import hashlib
import json
import random
import sys

import pytest

from topodyn import checker, cli, formula, harness
from topodyn.formula import (
    BOOLEAN,
    And,
    Atom,
    Atomic,
    Formula,
    Iff,
    Implies,
    Language,
    Next,
    Not,
    Or,
    Seq,
    TOP,
    Top,
    atoms,
    expand_duals,
    fold,
    format_formula,
    format_program,
    formula_to_json,
    in_language,
    modal_depth,
    parse,
    postorder,
)
from topodyn.formula import Test as ProgramTest
from topodyn.harness import GenConfig, _derived_rng, gen_formula, gen_model
from topodyn.models import DTModel, SubsetModel
from topodyn.proofkit import MAX_TABLE_VARS, _TruthTable, is_tautology
from topodyn.topology import TopoSpace
from topodyn.transform import build_network_space

# SHA-256 of the newline-joined formulas below, as random.choices-based
# sampling produced them, per (language, allow_seq); any change to the random
# stream shows here.  The allow_seq=False streams are the subset-space audit's
# (K_BOX_NEXT with tests) and its test bodies' (BOX_NEXT).
GOLDEN = {
    (Language.PDL, True): "b2b0c1230aaf09f4e08663d46bb2236e0a2caf5adb727624e3cedb0fb4ddc070",
    (Language.BOX_NEXT, True): "4ee0fcdf4f35e5e8a09e906be6e496053e9bd9a61e48b821c0011fd379f5efc6",
    (Language.K_BOX_NEXT, True): "74d8e1a27c6e6798f19e18a3ca46a87faf00c53b056bf5907ab1375f4f293226",
    (Language.BOX_NEXT, False): "02abaa0a805f808000f3b4bb6c2bf1cca814445cc06968c29f45cb0f1665e916",
    (Language.K_BOX_NEXT, False): "9d745e2ef42ded81079e510e9921eadd71bb5811ed0e8d9942cebe33046e525a",
}


@pytest.mark.parametrize("lang, allow_seq", list(GOLDEN),
                         ids=[f"{lang}{'' if seq else '-no_seq'}" for lang, seq in GOLDEN])
def test_gen_formula_stream_is_pinned(lang, allow_seq):
    rng = random.Random(20261018)
    text = "\n".join(
        format_formula(gen_formula(rng, ("p", "q", "r"), ("a", "b"), lang=lang,
                                   allow_seq=allow_seq, allow_tests=lang is not Language.PDL))
        for _ in range(300)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[lang, allow_seq]


def _subterms(f):
    """Every subterm of f, programs and test bodies included, by structural
    equality."""
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.children)
    return seen


@pytest.mark.parametrize("lang", list(Language))
def test_drawn_formulas_share_their_leaves(lang):
    def draw(atom_names, programs):
        rng = random.Random(41)
        return [gen_formula(rng, atom_names, programs, lang=lang,
                            allow_tests=lang is not Language.PDL) for _ in range(200)]

    formulas = draw(("p", "q", "r"), ("a", "b"))
    # list and tuple names give the same formulas, from the same grammar
    again = draw(["p", "q", "r"], ["a", "b"])
    assert formulas == again
    leaves: dict = {}
    for f in formulas + again:
        nodes = postorder(f)
        for node in nodes:
            cls = type(node)
            if cls in (Atom, Atomic, Top):
                leaves.setdefault((cls, getattr(node, "name", None)), set()).add(id(node))
        # each node object once, however often a shared leaf repeats
        assert len({id(node) for node in nodes}) == len(nodes) and set(nodes) == _subterms(f)
    assert all(len(objects) == 1 for objects in leaves.values())
    assert leaves[Top, None] == {id(TOP)}
    assert {name for cls, name in leaves if cls is Atom} == {"p", "q", "r"}


def test_equal_formulas_hash_and_fold_alike():
    rng = random.Random(7)
    for i in range(200):
        lang = list(Language)[i % 3]
        f = gen_formula(rng, ("p", "q"), ("a", "b"), lang=lang,
                        allow_tests=lang is not Language.PDL)
        g = parse(format_formula(f))  # the same formula, built separately
        assert f is not g and f == g and hash(f) == hash(g)
        assert formula_to_json(f) == formula_to_json(g)
        # the drawn formula shares its leaves; the parsed one does not
        assert set(postorder(f)) == set(postorder(g)) and len(postorder(f)) <= len(postorder(g))


def test_postorder_lists_each_node_object_once_children_first():
    pq = parse("p & q")
    f = parse("(p & q) | ~(p & q) | O[a;a] (p & q)")
    nodes = postorder(f)
    assert nodes[-1] is f and len({id(n) for n in nodes}) == len(nodes)
    position = {id(n): i for i, n in enumerate(nodes)}
    assert all(position[id(c)] < i for i, n in enumerate(nodes) for c in n.children)
    # equal subterms built apart are listed apart; one object is listed once
    assert [n for n in nodes if n == pq] == [f.left.left, f.left.right.body, f.right.body]
    shared = Or(pq, Not(pq))
    assert postorder(shared) == [pq.left, pq.right, pq, shared.right, shared]
    assert [format_formula(n) for n in postorder(parse("O[a;b] p"))] == [
        "a", "b", "a;b", "p", "O[a;b] p"]
    with pytest.raises(TypeError, match="not a formula"):
        postorder(42)


def test_a_shared_node_is_visited_once():
    x = Atom("p")
    for _ in range(60):
        x = And(x, x)  # 2**60 paths, 61 objects
    assert len(postorder(x)) == 61
    assert atoms(x) == {"p"}
    assert fold(x, lambda node, kids: 1 + sum(kids)) == 2**61 - 1


def test_equal_leaves_are_one_truth_table_variable():
    copies = [parse("box p") for _ in range(MAX_TABLE_VARS + 1)]
    f = copies[0]
    for g in copies[1:]:
        f = Or(f, Not(g))
    assert len({id(g) for g in copies}) == MAX_TABLE_VARS + 1
    assert is_tautology(f)
    conjunction = copies[0]
    for g in copies[1:]:
        conjunction = And(conjunction, g)
    assert not is_tautology(conjunction)


def test_unequal_formulas_differ():
    assert parse("p & q") != parse("q & p")
    assert Atom("a") != Atomic("a") and hash(Atom("a")) != hash(Atomic("a"))
    assert parse("O[a;b] p") != parse("O[a] O[b] p")


def test_one_formula_serves_two_models():
    sierpinski = TopoSpace.from_opens(2, [[], [1], [0, 1]])
    swap = DTModel(sierpinski, ("a",), {"a": (1, 0)}, {"p": 0b10})
    ident = DTModel(sierpinski, ("a",), {"a": (0, 1)}, {"p": 0b11})
    f = parse("dia O[a] p & ~box p")
    on_swap = checker.eval_dtl(swap, f)
    on_ident = checker.eval_dtl(ident, f)
    # a separately built copy, never evaluated before, reads each model afresh
    assert on_ident == checker.eval_dtl(ident, parse("dia O[a] p & ~box p"))
    assert on_swap == checker.eval_dtl(swap, f) == checker.eval_dtl(swap, parse(str(f)))
    assert on_swap != on_ident

    const = SubsetModel(sierpinski, ("a",), {"a": (1, 1)}, {"p": 0b10})
    undefined = SubsetModel(sierpinski, ("a",), {"a": (None, None)}, {"p": 0b10})
    g = parse("O[a] p")
    assert checker.SubsetEvaluator(const).extension(g, 0b11) == 0b11
    assert checker.SubsetEvaluator(undefined).extension(g, 0b11) == 0
    assert checker.SubsetEvaluator(const).extension(g, 0b11) == 0b11


def test_subset_memo_is_reused_across_scenarios():
    m = gen_model(GenConfig(seed=5, max_points=4, model_class="subset"), 3)
    rng = _derived_rng(5, 1)
    f = gen_formula(rng, ("p", "q"), m.alphabet, lang=Language.K_BOX_NEXT)
    ev = checker.SubsetEvaluator(m)
    first = [ev.extension(f, u) for u in m.space.opens_sorted()]
    interpreted = dict(ev._programs)
    again = [ev.extension(f, u) for u in m.space.opens_sorted()]
    fresh = [checker.SubsetEvaluator(m).extension(f, u) for u in m.space.opens_sorted()]
    assert first == again == fresh
    # the evaluator's program table serves every later call: nothing new is interpreted
    assert ev._programs == interpreted


@pytest.mark.parametrize("model_class", ["dtl", "subset"])
def test_expand_duals_keeps_extensions(model_class):
    for i in range(60):
        m = gen_model(GenConfig(seed=31, max_points=4, model_class=model_class), i)
        rng = _derived_rng(31, 2, i)
        if model_class == "dtl":
            lang = (Language.PDL, Language.BOX_NEXT)[i % 2]
            f = gen_formula(rng, ("p", "q"), m.alphabet, lang=lang)
            assert checker.eval_dtl(m, f) == checker.eval_dtl(m, expand_duals(f))
        else:
            f = gen_formula(rng, ("p", "q"), m.alphabet, lang=Language.K_BOX_NEXT,
                            allow_seq=False, allow_tests=True)
            ev = checker.SubsetEvaluator(m)
            for u in m.space.opens_sorted():
                assert ev.extension(f, u) == ev.extension(expand_duals(f), u)


def test_deep_formulas_need_no_recursion():
    space = TopoSpace.from_opens(2, [[], [1], [0, 1]])
    swap = DTModel(space, ("a",), {"a": (1, 0)}, {"p": 0b10})
    f = g = Atom("p")
    body, prog = Atom("p"), Atomic("a")
    for _ in range(3000):
        f, g = Not(f), Not(g)
        body, prog = Next(Atomic("a"), body), Seq(prog, Atomic("a"))
    # an even number of negations and of swaps
    for chain in (g, body):
        assert _walked(chain, lambda: checker._DynamicTopological(swap)) == 0b10
    assert f == g and hash(f) == hash(g) and len(postorder(f)) == 3001
    assert checker.eval_dtl(swap, f) == 0b10
    subset = SubsetModel(space, ("a",), {"a": (1, 1)}, {"p": 0b10})
    assert checker.SubsetEvaluator(subset).extension(body, 0b11) == 0b11
    assert checker.SubsetEvaluator(subset).extension(Next(prog, Atom("p")), 0b11) == 0b11
    assert format_formula(f) == "~" * 3000 + "p"
    assert format_program(prog) == ";".join(["a"] * 3001)


# --- the walk against a fold ------------------------------------------------------------


def _folded(f, sem):
    """f's extension by a fold, on a semantics that never shifts the
    context: the reference the walk is checked against."""
    full = sem.full(0)
    ops = {Not: lambda a: full & ~a, And: lambda a, b: a & b, Or: lambda a, b: a | b,
           Implies: lambda a, b: (full & ~a) | b, Iff: lambda a, b: full & ~(a ^ b)}

    def visit(node, kids):
        cls = type(node)
        if cls is Atom:
            return sem.atom(node, 0)
        if cls is Top:
            return full
        if cls in ops:
            return ops[cls](*kids)
        # a modality; nodes inside test programs are folded too, harmlessly
        return sem.modal(node, kids[-1], 0) if isinstance(node, Formula) else None

    return fold(f, visit)


def _walked(f, semantics):
    """f's extension on a new ``semantics()``, checked against a fold over f
    on another."""
    walked = checker.evaluate(f, semantics())
    assert walked == _folded(f, semantics())
    return walked


def _first_chunk(model, columns=1):
    _, width, atoms = next(checker.valuation_chunks(model.n, ("p", "q", "r"), columns))
    return atoms, width


def _opaque_leaves(f):
    """The non-Boolean subformulas reached from f through connectives, as
    ``proofkit.is_tautology`` lists them."""
    leaves, stack = [], [f]
    while stack:
        node = stack.pop()
        if type(node) in BOOLEAN:
            stack.extend(node.children)
        elif node not in leaves:
            leaves.append(node)
    return leaves


def _parallel(cls):
    return lambda m, f: cls(m, *_first_chunk(m))


def _chunk_judge(m, f):
    return checker.ScenarioJudge(m, *_first_chunk(m, len(m.space.opens)))


# name -> (model class, language, test programs drawn, semantics of (model, formula))
_CONTEXT_FREE = {
    "relational": ("pdl_serial", Language.PDL, False, lambda m, f: checker._Relational(m)),
    "dynamic-topological": ("dtl", None, False, lambda m, f: checker._DynamicTopological(m)),
    "parallel-relational": ("pdl_serial", Language.PDL, False,
                            _parallel(checker._ParallelRelational)),
    "parallel-dynamic-topological": ("dtl", None, False,
                                     _parallel(checker._ParallelDynamicTopological)),
    "scenario-judge": ("subset", Language.K_BOX_NEXT, True,
                       lambda m, f: checker.ScenarioJudge(m)),
    # a test program's image depends on the valuation, so a chunk has none
    "scenario-judge-chunk": ("subset", Language.K_BOX_NEXT, False, _chunk_judge),
    "truth-table": ("dtl", None, False, lambda m, f: _TruthTable(_opaque_leaves(f))),
}


@pytest.mark.parametrize("name", list(_CONTEXT_FREE))
def test_walk_matches_the_array_loop(name):
    model_class, lang, tests, semantics = _CONTEXT_FREE[name]
    subset = model_class == "subset"
    checked = guarded = 0
    for i in range(80):
        m = gen_model(GenConfig(seed=43, max_points=4, model_class=model_class), i)
        rng = _derived_rng(43, 5, i)
        f = gen_formula(rng, ("p", "q", "r"), m.alphabet,
                        lang=lang or (Language.PDL, Language.BOX_NEXT)[i % 2],
                        allow_seq=not subset, allow_tests=tests)
        if name == "truth-table" and len(_opaque_leaves(f)) > 10:
            continue
        _walked(f, lambda: semantics(m, f))
        checked += 1
        guarded += any(type(node) is ProgramTest for node in postorder(f))
    assert checked >= 50 and (guarded >= 10 if tests else not guarded)


def test_the_audit_builds_only_its_violations(monkeypatch):
    """A passing audit builds no instance: it judges each one as it is
    drawn.  A failing one builds each violation once, as a root judged
    once."""
    instances, judged = [], {}  # judged: id -> the roots evaluated under it
    real_evaluate, real_instantiate = checker.evaluate, harness.instantiate_scheme
    monkeypatch.setattr(checker, "evaluate", lambda f, *args: judged.setdefault(
        id(f), []).append(f) or real_evaluate(f, *args))
    monkeypatch.setattr(harness, "instantiate_scheme",
                        lambda *args: instances.append(real_instantiate(*args)) or instances[-1])
    for system in ("SPDL0", "SPDL0_SEQ", "DTEL"):
        assert harness.audit(system, GenConfig(seed=7, max_points=4), 4).ok
    assert instances == []
    judged.clear()  # test-program guards were evaluated; a dtl model has none
    rep = harness.audit("SPDL0_SEQ", GenConfig(seed=3, max_points=4, model_class="dtl"), 40)
    assert len(rep.violations) == len(instances) > 0
    assert [v.formula for v in rep.violations] == list(map(format_formula, instances))
    # both hold their nodes, so no id is reused while they are compared
    assert all(len(judged[id(f)]) == 1 and judged[id(f)][0] is f for f in instances)
    assert len(judged) == len(instances)


def test_language_and_depth_checks_walk_nothing(monkeypatch, capsys, tmp_path):
    """Each node's languages and modal depth are set when it is built, so
    neither the parse -> check path of ``transform --check`` nor a test
    program's fragment check lists a formula's nodes."""
    walked = []
    real = formula.postorder
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "topodyn"]:
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, lambda f: walked.append(f) or real(f))
    model = tmp_path / "serial.json"
    model.write_text(json.dumps({
        "type": "pdl", "points": 2, "serial": True,
        "programs": {"a": {"rel": [[0, 1], [1, 0]]}, "b": {"rel": [[0, 0], [1, 0], [1, 1]]}},
        "valuation": {"p": [0]},
    }))
    code = cli.main(["transform", "-m", str(model), "--depth", "2",
                     "--check", "p; <a>p -> [b]<a>p"])
    assert code == 0 and json.loads(capsys.readouterr().out)["preservation"]["checked"] == 10
    assert walked == []
    test = ProgramTest(parse("box p"))
    assert in_language(test, Language.BOX_NEXT) and modal_depth(test) == 0
    assert walked == []
