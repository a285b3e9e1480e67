"""Seeded generators, randomized audits, bounded countermodel search."""

import _random
import hashlib
import json
import random
import re
import tracemalloc

import pytest

from topodyn import harness
from topodyn.checker import (
    SubsetEvaluator,
    _program_key,
    eval_dtl,
    eval_pdl_relational,
    eval_subset,
    evaluate,
)
from topodyn.formula import (
    MODAL,
    Atom,
    Atomic,
    Cl,
    Int,
    KHat,
    Know,
    Language,
    Seq,
    TOP,
    atoms,
    format_formula,
    in_language,
    modal_depth,
    parse,
    postorder,
)
from topodyn.formula import Test as ProgramTest
from topodyn.frameprops import is_continuous, is_open_map, is_serial
from topodyn.harness import (
    MODEL_CLASSES,
    GenConfig,
    audit,
    gen_formula,
    gen_model,
    search_countermodel,
    _CPL_TEMPLATES,
    _DEFAULT_CLASS,
    _apply,
    _derived_rng,
    _global_failure,
    _grammar,
    _instance,
    _judge,
    _masks,
    _mix,
    _stream_key,
)
from topodyn.models import (
    DTModel,
    PDLModel,
    Scenario,
    SubsetModel,
    model_from_json,
    model_to_json,
    validate,
)
from topodyn.proofkit import get_system, instantiate_scheme
from topodyn.topology import iter_points


# --- generation --------------------------------------------------------------------


def test_gen_model_is_deterministic():
    for cls in MODEL_CLASSES:
        cfg = GenConfig(seed=12345, max_points=5, num_programs=2, model_class=cls)
        assert model_to_json(gen_model(cfg, index=9)) == model_to_json(gen_model(cfg, index=9))


# SHA-256 of the newline-joined JSON of models 0..59 per (class, max_attempts),
# recorded when the seed was first mixed alone, before the index; max_attempts 0
# sends every constrained map to the constructive fallback
MODEL_GOLDEN = {
    ("pdl_serial", 10_000): "062ad6b64d3de5c02cab535f4d6b798f8a471adbf568c100a2fe34f1200384be",
    ("dtl", 10_000): "64830d4429ce3c594fccbb5d4fcd92ea256acf695e669eff7d0a542bbfd87cef",
    ("dtl_open", 10_000): "23748c19c67502fafd240f2b94101681b12b479b26fafd583baf717ae0b1d142",
    ("dtl_open", 0): "40fede7e1e760ca376abfb4cf06cc7d1d5861558c64e5917fd82e651ccf7768f",
    ("dtl_continuous", 10_000): "81bd35433ec2586e9fec59eedc27af2e667918c0984b397d1239781578c7c2e5",
    ("dtl_continuous", 0): "7420a8ac99147761f10d594c5ac97a5fdbebf14e6b422c1a5e43ac00b527b778",
    ("subset", 10_000): "12cb69f937e2d7c83736117cd6a19c69a957a08f238997a510c07c71b721a464",
    ("subset", 0): "e78063ab60d63fc102d988ec8c03b4bdc2681474e59719a821b8b4e552a7e019",
}


@pytest.mark.parametrize("model_class, max_attempts", list(MODEL_GOLDEN))
def test_gen_model_stream_is_pinned(model_class, max_attempts):
    cfg = GenConfig(seed=20261018, max_points=5, num_programs=2, model_class=model_class,
                    max_attempts=max_attempts)
    text = "\n".join(
        json.dumps(model_to_json(gen_model(cfg, i)), sort_keys=True) for i in range(60)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_GOLDEN[model_class, max_attempts]


def test_gen_model_varies_with_index():
    cfg = GenConfig(seed=8, max_points=5, num_programs=2, model_class="dtl")
    seen = {json.dumps(model_to_json(gen_model(cfg, index=i)), sort_keys=True) for i in range(20)}
    assert len(seen) > 1


def test_neighbouring_keys_give_different_streams():
    """The seed is mixed before any salt goes in, so a key one step up in
    one place and one step down in another gives another stream."""
    for s in (0, 1, 3, 11, 2**31, 20261018, 2**64 - 1):
        for i in range(20):
            draws = {_derived_rng(*key).getrandbits(64) for key in (
                (s, i), (s + 1, i), (s, i + 1), (s + 1, i, 0), (s, i + 1, 0), (s, i, 1))}
            assert len(draws) == 6, (s, i)


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
def test_neighbouring_seeds_do_not_share_models(model_class):
    """Seed s + 1's models are not seed s's shifted by one index.  Small
    models can coincide by chance, so the lists are compared whole."""
    def models(seed, indices):
        cfg = GenConfig(seed=seed, model_class=model_class)
        return [model_to_json(gen_model(cfg, i)) for i in indices]

    for s in (3, 11, 20261018):
        later, shifted = models(s + 1, range(50)), models(s, range(1, 51))
        assert later != shifted
        assert sum(a == b for a, b in zip(later, shifted)) < 10


def test_gen_model_classes_deliver_their_contracts():
    for i in range(40):
        m = gen_model(GenConfig(seed=9, max_points=5, num_programs=2, model_class="pdl_serial"), index=i)
        assert isinstance(m, PDLModel)
        assert validate(m) == []
        assert is_serial(m).holds

        m = gen_model(GenConfig(seed=9, max_points=5, num_programs=2, model_class="dtl"), index=i)
        assert isinstance(m, DTModel)
        assert validate(m) == []

        m = gen_model(GenConfig(seed=9, max_points=5, num_programs=2, model_class="dtl_open"), index=i)
        assert all(is_open_map(m.space, m.fn[name]).holds for name in m.alphabet)

        m = gen_model(GenConfig(seed=9, max_points=5, num_programs=2, model_class="dtl_continuous"), index=i)
        assert all(is_continuous(m.space, m.fn[name]).holds for name in m.alphabet)

        m = gen_model(GenConfig(seed=9, max_points=5, num_programs=2, model_class="subset"), index=i)
        assert isinstance(m, SubsetModel)
        assert validate(m) == []


@pytest.mark.parametrize("seed", [2**64 + 3, 2**64, -5, -1])
def test_gen_model_refuses_a_seed_outside_64_bits(seed):
    """Seeds are mixed as 64 bits: 2**64 + 3 would draw seed 3's models and
    -5 those of 2**64 - 5, so both are refused before any model is drawn."""
    with pytest.raises(ValueError, match=rf"^seeds run from 0 to 2\*\*64 - 1, not {seed}$"):
        gen_model(GenConfig(seed=seed, model_class="pdl_serial"), 1)
    for edge in (0, 2**64 - 1):
        assert gen_model(GenConfig(seed=edge, model_class="pdl_serial"), 1).n >= 1


def test_gen_model_unknown_class():
    with pytest.raises(ValueError, match="model class"):
        gen_model(GenConfig(seed=1, model_class="euclidean"))


def test_gen_formula_respects_budget_and_language():
    for salt, lang in enumerate((Language.PDL, Language.BOX_NEXT, Language.K_BOX_NEXT)):
        rng = _derived_rng(77, salt)
        for _ in range(500):
            f = gen_formula(rng, ("p", "q"), ("a", "b"), modal_budget=2, size_budget=6,
                            lang=lang, allow_seq=lang is Language.PDL)
            assert in_language(f, lang)
            assert modal_depth(f) <= 2


def test_gen_formula_needs_an_atom():
    """A leaf is drawn as ``random.choice`` draws, which from no atoms would
    loop for ever from CPython 3.11 on; the grammar refuses instead."""
    with pytest.raises(ValueError, match="at least one atom"):
        gen_formula(random.Random(0), (), ("a",))


# --- audits ------------------------------------------------------------------------


def test_audit_clean_runs():
    assert audit("SPDL0", GenConfig(seed=21, max_points=4), trials=30).ok
    assert audit("SPDL0_SEQ", GenConfig(seed=22, max_points=4), trials=30).ok
    assert audit("DTEL", GenConfig(seed=23, max_points=4), trials=30).ok


def test_audit_defaults_pair_systems_with_sound_classes():
    assert audit("SPDL0", GenConfig(seed=24), trials=5).model_class == "dtl"
    assert audit("SPDL0_SEQ", GenConfig(seed=24), trials=5).model_class == "dtl_open"
    assert audit("DTEL", GenConfig(seed=24), trials=5).model_class == "subset"


def test_audit_is_deterministic():
    cfg = GenConfig(seed=77, max_points=4, num_programs=2)
    one = audit("DTEL", cfg, trials=20)
    two = audit("DTEL", cfg, trials=20)
    assert json.dumps(one.to_json(), sort_keys=True) == json.dumps(two.to_json(), sort_keys=True)
    # wall-clock time is reported separately and never part of the canon
    assert "elapsed" not in one.to_json()
    assert "elapsed" in one.to_json(include_elapsed=True)


def test_audit_counts_checks():
    rep = audit("SPDL0", GenConfig(seed=25, max_points=3), trials=10, instances=4)
    # three schemes (CPL, K, D) times trials times instances
    assert rep.checked == 3 * 10 * 4


def test_audit_scheme_filter():
    rep = audit("SPDL0", GenConfig(seed=26, max_points=3), trials=10, schemes=("D",))
    assert rep.checked == 10 * 3  # one scheme, default 3 instances each
    only_seq = audit(
        "SPDL0_SEQ",
        GenConfig(seed=26, max_points=4, num_programs=2, model_class="dtl"),
        trials=60,
        schemes=("Seq",),
    )
    assert not only_seq.ok
    # a name foreign to the system filters to nothing rather than erroring
    assert audit("SPDL0", GenConfig(seed=26), trials=1, schemes=("KI",)).checked == 0


def test_audit_catches_unsound_pairing():
    # the sequencing axiom is not valid over arbitrary (non-open) maps
    rep = audit(
        "SPDL0_SEQ",
        GenConfig(seed=3, max_points=4, num_programs=2, model_class="dtl"),
        trials=40,
    )
    assert not rep.ok
    assert all(v.scheme == "Seq" for v in rep.violations)


# SHA-256 of json.dumps(report.to_json(), sort_keys=True) per (system, model
# class, seed, trials); the passing runs' were recorded before formulas were
# drawn from one cached grammar, the unsound pairing's when each audit
# instance was first given its own stream.  The unsound pairing's
# violations carry formulas, models and witness points, so a changed draw
# order or witness shows here; None is the system's default class.
AUDIT_GOLDEN = {
    ("SPDL0_SEQ", "dtl", 3, 40): "0426ad0d961215b7b0be26f203c360792507682fd38f8b2fc69c06c350c42be9",
    ("SPDL0", None, 21, 30): "82bbd72db077f5bc68b12991ba1fd08576760ad9a62c4321f5c0dd0eb66e3f90",
    ("SPDL0_SEQ", None, 22, 30): "9920e3167a3ce9bd3bc156ea25947fea3f0daa2154e396c5dd2bf8561b03f98d",
    ("DTEL", None, 23, 30): "bdef1fc55ef75d83d3423e7a079471bfd8e5377f133afce20c2546498c794ce9",
}


@pytest.mark.parametrize("system, model_class, seed, trials", list(AUDIT_GOLDEN))
def test_audit_report_is_pinned(system, model_class, seed, trials):
    rep = audit(system, GenConfig(seed=seed, max_points=4, num_programs=2,
                                  model_class=model_class), trials=trials)
    text = json.dumps(rep.to_json(), sort_keys=True)
    want = AUDIT_GOLDEN[system, model_class, seed, trials]
    assert hashlib.sha256(text.encode()).hexdigest() == want
    assert rep.ok is (model_class is None)


# SHA-256 of the newline-joined formulas of every instance the audit of
# AUDIT_GOLDEN's passing runs draws, in order, as the tree path formats them;
# recorded by wrapping instantiate_scheme when each instance was first given
# its own stream
AUDIT_STREAM = {
    ("SPDL0", 21): "f3f31ebfdf5ae9e633b1d4750e9357d78d8d2ac28916de95b9d0e2e01c0617e1",
    ("SPDL0_SEQ", 22): "fa7aa5fd0f0e1bbaaae08b986cbcdfbce0381777b9bd77701692f6f39f42ed9c",
    ("DTEL", 23): "d1d1a3c1db17f44055dff0c54dab936da6e7e976e0405cd6de29bdaeeaa27390",
}


def _drawn_as_trees(monkeypatch) -> list:
    """The formulas of the instances audits draw from now on, in order: the
    mask path refuses every instance, so each is drawn again as a tree."""
    texts, instantiate = [], harness.instantiate_scheme

    def recorded(*args):
        inst = instantiate(*args)
        texts.append(format_formula(inst))
        return inst

    def refused(*args):
        raise ValueError("judged as a tree")

    monkeypatch.setattr(harness, "instantiate_scheme", recorded)
    monkeypatch.setattr(harness, "_apply", refused)
    return texts


@pytest.mark.parametrize("system, seed", list(AUDIT_STREAM))
def test_audit_instance_stream_is_pinned(monkeypatch, system, seed):
    """With the mask path refusing every instance, each is drawn again as a
    tree; the instances and the report are the ones pinned.  A passing
    audit's report holds only counts, so the stream is what pins its draws."""
    texts = _drawn_as_trees(monkeypatch)
    rep = audit(system, GenConfig(seed=seed, max_points=4, num_programs=2), trials=30)
    assert len(texts) == rep.checked
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == AUDIT_STREAM[system, seed]
    report = hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()
    assert report == AUDIT_GOLDEN[system, None, seed, 30]


@pytest.mark.parametrize("system", ["SPDL0", "SPDL0_SEQ", "DTEL"])
def test_neighbouring_seeds_draw_different_instances(monkeypatch, system):
    """The instances of seed s + 1 are not seed s's one trial later."""
    texts, trials = _drawn_as_trees(monkeypatch), 8
    drawn = {}
    for seed in (30, 31):
        start = len(texts)
        rep = audit(system, GenConfig(seed=seed, max_points=3), trials=trials)
        per_trial = rep.checked // trials
        drawn[seed] = [texts[start + t * per_trial:start + (t + 1) * per_trial]
                       for t in range(trials)]
    later, shifted = sum(drawn[31][:-1], []), sum(drawn[30][1:], [])
    assert later != shifted
    assert sum(a == b for a, b in zip(later, shifted)) < len(later) // 2


@pytest.mark.parametrize("system", ["SPDL0", "SPDL0_SEQ", "DTEL"])
def test_an_instance_draws_formulas_only_for_the_atoms_its_template_reads(system):
    """From its own stream an instance draws its template (CPL's only), its
    three program variables, then one formula per atom the template reads,
    in name order, and nothing more."""
    proof_system = get_system(system)
    model_class = _DEFAULT_CLASS[system]
    cfg = GenConfig(seed=41, max_points=3, model_class=model_class)
    model = gen_model(cfg, 0)
    grammar = _grammar(cfg.atoms, model.alphabet, proof_system.language,
                       model_class != "subset", model_class == "subset")
    read = []
    for k, template in enumerate([None] * 12 + [t for _, t in proof_system.schemes]):
        rng = _derived_rng(41, 0, k)
        base, formulas, programs = _instance(rng, grammar, template, grammar.nodes)
        assert list(formulas) == sorted(atoms(base))
        replay = _derived_rng(41, 0, k)
        assert (template or replay.choice(_CPL_TEMPLATES)) is base
        assert programs == {v: replay.choice(grammar.programs) for v in ("pi", "pi1", "pi2")}
        assert list(formulas.values()) == [grammar.formula(replay, grammar.nodes, 3, 4)
                                           for _ in formulas]
        assert replay.getstate() == rng.getstate()
        read.append(len(formulas))
    assert min(read) == 1 and max(read) == 3


@pytest.mark.parametrize("system, model_class, seed", [
    *[(system, None, seed) for system in ("SPDL0", "SPDL0_SEQ", "DTEL") for seed in (5, 29)],
    ("SPDL0_SEQ", "dtl", 3), ("SPDL0_SEQ", "dtl", 29),
])
def test_every_algebra_draws_what_the_node_one_does(system, model_class, seed):
    """Drawn as nodes or as masks, each from a fresh copy of the instance's
    own stream, an audit instance makes the same draws.  Each mask, of a
    variable or of the instance, is the judge's ``evaluate`` of the tree,
    and the template applied to the trees is ``instantiate_scheme``'s
    instance."""
    proof_system, unsound = get_system(system), model_class is not None
    model_class = model_class or _DEFAULT_CLASS[system]
    cfg = GenConfig(seed=seed, max_points=4, num_programs=2, model_class=model_class)
    templates = [None] + [t for _, t in proof_system.schemes]
    plan = [t for t in templates for _ in range(3)]  # the audit's order
    failing = 0
    for trial in range(8):
        model = gen_model(cfg, trial)
        judge = _judge(model)
        grammar = _grammar(cfg.atoms, model.alphabet, proof_system.language,
                           model_class != "subset", model_class == "subset")
        masks, full = _masks(judge, grammar.atoms), judge.full(0)
        for k, template in enumerate(plan):
            rng = _derived_rng(seed, trial, k)
            base, trees, programs = _instance(rng, grammar, template, grammar.nodes)
            after = rng.getstate()
            inst = instantiate_scheme(base, trees, programs)
            assert _apply(base, trees, programs, grammar.nodes) == inst
            rng = _derived_rng(seed, trial, k)
            got = _instance(rng, grammar, template, masks)
            assert rng.getstate() == after
            assert got[0] is base and got[2] == programs
            assert got[1] == {v: evaluate(f, judge) for v, f in trees.items()}
            mask = _apply(*got, masks)
            assert mask == evaluate(inst, judge)
            failing += bool(full & ~mask)
    assert (failing > 0) is unsound


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_a_reseeded_generator_draws_the_derived_stream(seed):
    """The audit reseeds one generator per instance with the key of (seed,
    trial) mixed once more with the position k; a failing instance's redraw
    relies on that being the stream of ``_derived_rng(seed, trial, k)``."""
    rng = random.Random(0)
    for trial in (0, 1, 7, 1000):
        prefix = _stream_key(seed, trial)
        for k in (0, 1, 2, 13, 89):
            key = _mix(prefix, k)
            assert key == _stream_key(seed, trial, k)
            _random.Random.seed(rng, key)
            fresh = _derived_rng(seed, trial, k)
            assert [rng.getrandbits(64) for _ in range(64)] == \
                [fresh.getrandbits(64) for _ in range(64)], (trial, k)


def _bodies(full: int):
    """Every mask within full."""
    m = 0
    while True:
        yield m
        if m == full:
            return
        m = (m - full) & full


@pytest.mark.parametrize("model_class", ["dtl", "pdl_serial", "subset"])
def test_each_remembered_modality_is_the_judges(model_class):
    """Each modality of the mask algebra gives what the judge's ``modal``
    gives on a fresh semantics and stand-in, for every body mask of a small
    model, when first asked and when remembered, and for an equal program
    built anew; a refused modality is refused at every call."""
    def small(m):  # three points, and at most 5 opens: box is not the identity
        return m.n == 3 and (model_class == "pdl_serial" or len(m.space.opens_sorted()) <= 5)

    def programs():
        a, b = (Atomic(name) for name in model.alphabet)
        if model_class != "subset":
            return [a, b, Seq(a, b)]
        guard = ProgramTest(Int(Atom("p")))
        return [a, guard, Seq(b, guard)]

    def refused(op, fresh, *args) -> bool:
        try:
            want = fresh()
        except ValueError as exc:
            for _ in range(2):
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    op(*args)
            return True
        assert [op(*args), op(*args)] == [want, want], args
        return False

    cfg = GenConfig(seed=3, max_points=3, model_class=model_class)
    model = next(m for i in range(200) if small(m := gen_model(cfg, i)))
    masks, progs = _masks(_judge(model), ()), programs() + programs()
    refusals = 0
    for body in _bodies(masks.top):
        for kind in (Int, Cl, Know, KHat):
            refusals += refused(masks.ops[kind],
                                lambda: _judge(model).modal(kind(TOP), body, 0), body)
        for kind in MODAL:
            for prog in progs:
                refusals += refused(masks.ops[kind],
                                    lambda: _judge(model).modal(kind(prog, TOP), body, 0),
                                    prog, body)
    assert refusals  # every class refuses some modality


def test_audit_holds_no_list_of_its_instances():
    """A trial's instances are walked by position, not listed first."""
    audit("SPDL0", GenConfig(seed=0), trials=0, instances=1)  # the system, cached
    tracemalloc.start()
    try:
        rep = audit("SPDL0", GenConfig(seed=0), trials=0, instances=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.checked == 0 and rep.instances == 10**5
    assert peak < 2**20


def test_audit_violations_reverify():
    rep = audit(
        "SPDL0_SEQ",
        GenConfig(seed=3, max_points=4, num_programs=2, model_class="dtl"),
        trials=40,
    )
    assert rep.violations
    for v in rep.violations:
        obj = v.to_json()
        model = model_from_json(obj["model"])
        inst = parse(obj["formula"])
        ext = eval_dtl(model, inst)
        assert not ext >> obj["point"] & 1


def test_audit_takes_one_to_five_programs():
    for k in (1, 5):
        rep = audit("SPDL0", GenConfig(seed=27, max_points=3, num_programs=k), trials=4)
        assert rep.ok and rep.checked == 4 * 3 * 3
    for k in (0, 6):
        with pytest.raises(ValueError, match="programs"):
            audit("SPDL0", GenConfig(seed=27, num_programs=k), trials=1)


def test_audit_unknown_system():
    with pytest.raises(ValueError, match="unknown proof system"):
        audit("S4", GenConfig(seed=1), trials=1)


@pytest.mark.parametrize("model_class", ["dtl", "dtl_open", "dtl_continuous", "pdl_serial"])
def test_kept_semantics_matches_a_fresh_one(model_class):
    """The semantics audit keeps for a model gives every formula the mask a
    fresh evaluator gives it, and interprets each distinct program once."""
    fresh = eval_pdl_relational if model_class == "pdl_serial" else eval_dtl
    langs = (Language.PDL,) if model_class == "pdl_serial" else (Language.PDL, Language.BOX_NEXT)
    sequences = 0
    for i in range(10):
        model = gen_model(GenConfig(seed=61, max_points=4, num_programs=2,
                                    model_class=model_class), i)
        judge = _judge(model)
        interpreted = []
        interpret = judge.interpret
        judge.interpret = lambda prog: interpreted.append(_program_key(prog)) or interpret(prog)
        rng = _derived_rng(61, i)
        programs = set()
        for j in range(20):  # 200 formulas per class
            f = gen_formula(rng, ("p", "q"), model.alphabet, lang=langs[j % len(langs)])
            programs |= {_program_key(node.prog) for node in postorder(f) if type(node) in MODAL}
            assert evaluate(f, judge) == fresh(model, f), (i, j)
            assert _global_failure(model, f, judge) == _global_failure(model, f)
        assert sorted(interpreted, key=repr) == sorted(programs, key=repr)
        sequences += sum(isinstance(key, tuple) for key in programs)
    assert sequences >= 5  # a;b programs among them


# --- countermodel search --------------------------------------------------------------


def test_search_finds_nothing_for_valid_formulas():
    assert search_countermodel(parse("box p -> p"), bound=3, model_class="dtl") is None
    assert search_countermodel(parse("K p -> p"), bound=3, model_class="subset") is None
    assert search_countermodel(parse("O[a] (p & q) <-> O[a] p & O[a] q"), bound=2, model_class="subset") is None


def test_search_refutes_box_introduction():
    got = search_countermodel(parse("p -> box p"), bound=4, model_class="dtl")
    assert got is not None
    model, point = got
    # smallest refutation: the two-point space with one nontrivial open
    assert model_to_json(model) == {
        "type": "dtl",
        "space": {"points": 2, "opens": [[], [1], [0, 1]]},
        "programs": {},
        "valuation": {"p": [0]},
    }
    assert point == 0
    assert not eval_dtl(model, parse("p -> box p")) >> point & 1


def test_search_refutes_knowledge_introduction():
    got = search_countermodel(parse("p -> K p"), bound=3, model_class="subset")
    assert got is not None
    model, s = got
    assert isinstance(s, Scenario)
    assert not eval_subset(model, parse("p -> K p"), s)


def test_search_refutes_seq_interchange():
    got = search_countermodel(parse("<a;b>p <-> <a><b>p"), bound=3, model_class="dtl")
    assert got is not None
    model, point = got
    assert model.space.n <= 2
    assert not eval_dtl(model, parse("<a;b>p <-> <a><b>p")) >> point & 1


def test_search_on_relational_models():
    got = search_countermodel(parse("[a]p -> <a>p"), bound=3, model_class="pdl_serial")
    assert got is None  # D is valid on serial models
    got = search_countermodel(parse("<a>p -> [a]p"), bound=3, model_class="pdl_serial")
    assert got is not None
    model, point = got
    assert not eval_pdl_relational(model, parse("<a>p -> [a]p")) >> point & 1


@pytest.mark.parametrize("system, model_class", [
    ("SPDL0", "dtl"), ("SPDL0", "dtl_open"), ("SPDL0", "dtl_continuous"),
    ("SPDL0", "pdl_serial"), ("SPDL0_SEQ", "dtl_open"), ("DTEL", "subset"),
])
def test_scheme_templates_have_no_countermodel_up_to_four_points(system, model_class):
    """Soundness by exhaustion.  Each scheme template is searched as it is:
    its formula variables range over every valuation and its program
    variables are the searched programs.  On point semantics (``dtl``
    classes, ``pdl_serial``) an instance's formulas denote point sets, so
    this proves every instance on every model of the class up to 4 points.
    On subset-space models a formula's extension depends on the scenario's
    open, so for DTEL it is a necessary condition only."""
    for name, template in get_system(system).schemes:
        assert search_countermodel(template, bound=4, model_class=model_class) is None, name


def test_seq_template_is_refuted_on_dtl():
    """``Seq`` needs open maps: on ``dtl`` the two-point Sierpinski space
    with a constant map refutes it."""
    template = dict(get_system("SPDL0_SEQ").schemes)["Seq"]
    model, point = search_countermodel(template, bound=4, model_class="dtl")
    assert model_to_json(model) == {
        "type": "dtl",
        "space": {"points": 2, "opens": [[], [1], [0, 1]]},
        "programs": {"pi1": {"map": [0, 0]}, "pi2": {"map": [0, 1]}},
        "valuation": {"p": [1]},
    }
    assert point == 0


def test_search_is_deterministic():
    f = parse("<a;b>p <-> <a><b>p")
    one = search_countermodel(f, bound=3, model_class="dtl")
    two = search_countermodel(f, bound=3, model_class="dtl")
    assert model_to_json(one[0]) == model_to_json(two[0]) and one[1] == two[1]


def reference_subset_witness(model, f):
    """The witness the audit reports, one open at a time: the first open in
    ``opens_sorted`` order where f fails, with its least failing point."""
    ev = SubsetEvaluator(model)
    for u in model.space.opens_sorted():
        got = ev.extension(f, u)
        if got != u:
            return Scenario(next(iter_points(u & ~got)), u)
    return None


@pytest.mark.parametrize("text", ["p -> K p", "Khat p -> O[a] p", "dia p -> K dia p",
                                  "O[a] Khat p -> box q"])
def test_subset_witness_matches_the_per_open_scan(text):
    f = parse(text)
    failing = 0
    for i in range(120):
        model = gen_model(GenConfig(seed=71, max_points=6, num_programs=1,
                                    model_class="subset"), i)
        if model.n < 4:
            continue
        want = reference_subset_witness(model, f)
        assert _global_failure(model, f) == want, i
        failing += want is not None
    assert failing >= 20
