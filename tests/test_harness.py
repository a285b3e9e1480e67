"""Seeded generators, randomized audits, bounded countermodel search."""

import hashlib
import json

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
    Language,
    compile,
    format_formula,
    in_language,
    modal_depth,
    parse,
)
from topodyn.frameprops import is_continuous, is_open_map, is_serial
from topodyn.harness import (
    MODEL_CLASSES,
    GenConfig,
    audit,
    gen_formula,
    gen_model,
    search_countermodel,
    _DEFAULT_CLASS,
    _apply,
    _derived_rng,
    _global_failure,
    _grammar,
    _instance,
    _judge,
    _masks,
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
# recorded before generation and search shared one class table; max_attempts 0
# sends every constrained map to the constructive fallback
MODEL_GOLDEN = {
    ("pdl_serial", 10_000): "c2b3f723b791c7dab0c01f1969644291514a320e47e99c4ee56b11e9ea68b2e3",
    ("dtl", 10_000): "1edaebcf0c4d7ac990c4e4a961922acc55867ca907781767e38fd1f7190a74f5",
    ("dtl_open", 10_000): "8801896ebd351e0c4495ceb5b0bc775d6341377414c2a969ed56bb7e85308646",
    ("dtl_open", 0): "323e0cb0150043481c54459287fdfdbcf11c5ac1f70ee46434a98297d4a50117",
    ("dtl_continuous", 10_000): "b953a472859d2b8871d5af3d9f674d65bb9dd5ac05981ce115c56d19581949d4",
    ("dtl_continuous", 0): "a6439c0a818e4fa7519b859b5afcf9a72e5c41cfa7d47d26f7dbe79db3c5f6fa",
    ("subset", 10_000): "605567d3adfa64798430207b0c92eddbb052a4cc606aa0dee4ecd0126cb24a88",
    ("subset", 0): "d3d8d4af1346c2a029b5ce583a6ef57ddbb6996d5fdcd160ad6978ac46c3c447",
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
# class, seed, trials), recorded before formulas were drawn from one cached
# grammar and each model kept one semantics.  The unsound pairing's
# violations carry formulas, models and witness points, so a changed draw
# order or witness shows here; None is the system's default class.
AUDIT_GOLDEN = {
    ("SPDL0_SEQ", "dtl", 3, 40): "63a766b2ca8c72cefe9e30773e2e3edc8c9206ab107180d5fcab6a41aaea1675",
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
# recorded by wrapping instantiate_scheme before the audit judged instances
# as they were drawn, when every instance went through it
AUDIT_STREAM = {
    ("SPDL0", 21): "09988db40afc9f2d00bdacfadc23edc10960ef2bd77c06fcbebcc5b800926f41",
    ("SPDL0_SEQ", 22): "8a895640e3ad11cdc15ef86ea516c4ef1794eec862d3390192cbb6b257613450",
    ("DTEL", 23): "73657ee8879f09d75e7d486f5eb74c0034f2264af0ae2b076771afe4bf5d2267",
}


@pytest.mark.parametrize("system, seed", list(AUDIT_STREAM))
def test_audit_instance_stream_is_pinned(monkeypatch, system, seed):
    """With the mask path refusing every instance, each is drawn again as a
    tree; the instances and the report are the ones pinned.  A passing
    audit's report holds only counts, so the stream is what pins its draws."""
    texts, instantiate = [], harness.instantiate_scheme

    def recorded(*args):
        inst = instantiate(*args)
        texts.append(format_formula(inst))
        return inst

    def refused(*args):
        raise ValueError("judged as a tree")

    monkeypatch.setattr(harness, "instantiate_scheme", recorded)
    monkeypatch.setattr(harness, "_apply", refused)
    rep = audit(system, GenConfig(seed=seed, max_points=4, num_programs=2), trials=30)
    assert len(texts) == rep.checked
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == AUDIT_STREAM[system, seed]
    report = hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()
    assert report == AUDIT_GOLDEN[system, None, seed, 30]


@pytest.mark.parametrize("system, model_class, seed", [
    *[(system, None, seed) for system in ("SPDL0", "SPDL0_SEQ", "DTEL") for seed in (5, 29)],
    ("SPDL0_SEQ", "dtl", 3), ("SPDL0_SEQ", "dtl", 29),
])
def test_every_algebra_draws_what_the_node_one_does(system, model_class, seed):
    """Drawn as masks or drawn only, every audit instance leaves rng where
    the tree draw leaves it.  Each mask, of a variable or of the instance,
    is the judge's ``evaluate`` of the tree, and the template applied to the
    trees is ``instantiate_scheme``'s instance."""
    proof_system, unsound = get_system(system), model_class is not None
    model_class = model_class or _DEFAULT_CLASS[system]
    cfg = GenConfig(seed=seed, max_points=4, num_programs=2, model_class=model_class)
    templates = [None] + [t for _, t in proof_system.schemes]
    failing = 0
    for trial in range(8):
        model = gen_model(cfg, trial)
        judge = _judge(model)
        grammar = _grammar(cfg.atoms, model.alphabet, proof_system.language,
                           model_class != "subset", model_class == "subset")
        masks, full = _masks(judge, grammar.atoms), judge.full(0)
        rng = _derived_rng(seed, trial, 0x5EED)
        for template in [t for t in templates for _ in range(3)]:  # the audit's order
            before = rng.getstate()
            base, trees, programs = _instance(
                rng, grammar, template, lambda v: grammar.formula(rng, grammar.nodes, 3, 4))
            after = rng.getstate()
            inst = instantiate_scheme(base, trees, programs)
            assert _apply(base, trees, programs, grammar.nodes) == inst
            for alg in (masks, grammar.draws):
                rng.setstate(before)
                got = _instance(rng, grammar, template, lambda v: grammar.formula(rng, alg, 3, 4))
                assert rng.getstate() == after
                assert got[0] is base and got[2] == programs
                if alg is grammar.draws:
                    assert list(got[1].values()) == [None] * 3
                    continue
                assert got[1] == {v: evaluate(f, judge) for v, f in trees.items()}
                mask = _apply(*got, masks)
                assert mask == evaluate(inst, judge)
            failing += bool(full & ~mask)
    assert (failing > 0) is unsound


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
            programs |= {_program_key(node.prog) for cls, _, node in compile(f) if cls in MODAL}
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
