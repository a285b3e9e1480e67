"""Scheme matching, tautology checking, and derivation verification."""

import pytest

from topodyn.checker import SubsetEvaluator, eval_pdl_relational
from topodyn.formula import format_formula, parse, parse_program
from topodyn.harness import GenConfig, gen_model
from topodyn.proofkit import (
    DTEL,
    SPDL0,
    SPDL0_SEQ,
    AxiomStep,
    Derivation,
    MonStep,
    MPStep,
    NecStep,
    Step,
    check_derivation,
    derivation_from_json,
    get_system,
    instantiate_scheme,
    is_tautology,
    match_axiom,
    match_scheme,
)
from topodyn.topology import full_mask


def ax(text, name):
    return Step(parse(text), AxiomStep(name))


def mp(text, antecedent, implication):
    return Step(parse(text), MPStep(antecedent, implication))


def nec(text, mod, source):
    return Step(parse(text), NecStep(mod, source))


def mon(text, prog, source):
    return Step(parse(text), MonStep(prog, source))


# frozen sample derivations, reused across tests
BOX_DIST = Derivation("SPDL0", (
    ax("(p & q) -> q", "CPL"),
    nec("[a]((p & q) -> q)", "a", 1),
    ax("[a]((p & q) -> q) -> ([a](p & q) -> [a]q)", "K"),
    mp("[a](p & q) -> [a]q", 2, 3),
))

KNOW_FACTIVE = Derivation("DTEL", (
    ax("K p -> box p", "KI"),
    ax("box p -> p", "T_Box"),
    ax("(K p -> box p) -> ((box p -> p) -> (K p -> p))", "CPL"),
    mp("(box p -> p) -> (K p -> p)", 1, 3),
    mp("K p -> p", 2, 4),
))

SEQ_HALF = Derivation("SPDL0_SEQ", (
    ax("<a;b>p <-> <a><b>p", "Seq"),
    ax("(<a;b>p <-> <a><b>p) -> (<a;b>p -> <a><b>p)", "CPL"),
    mp("<a;b>p -> <a><b>p", 1, 2),
))

MON_EXAMPLE = Derivation("DTEL", (
    ax("p & q -> p", "CPL"),
    mon("O[a] (p & q) -> O[a] p", "a", 1),
))

NEC_CHAIN = Derivation("DTEL", (
    ax("p -> p", "CPL"),
    nec("K (p -> p)", "K", 1),
    nec("box K (p -> p)", "box", 2),
))


# --- tautology checking ---------------------------------------------------------


def test_tautologies():
    assert is_tautology(parse("p | ~p"))
    assert is_tautology(parse("((p -> q) -> p) -> p"))
    assert is_tautology(parse("top"))
    assert not is_tautology(parse("p -> q"))
    assert not is_tautology(parse("p | q"))


def test_tautology_abstracts_modal_subformulas():
    assert is_tautology(parse("[a]p -> [a]p"))
    assert is_tautology(parse("K p & box q -> box q"))
    assert not is_tautology(parse("[a]p -> [b]p"))
    assert not is_tautology(parse("box p -> p"))


def test_tautology_var_cap():
    atoms = " | ".join(f"x{i}" for i in range(17))
    with pytest.raises(ValueError, match="17"):
        is_tautology(parse(atoms))
    # sixteen distinct atoms is still within the table bound
    sixteen = " | ".join(f"x{i}" for i in range(16))
    assert is_tautology(parse(f"{sixteen} | ~x0"))


# --- scheme matching --------------------------------------------------------------


def test_match_axiom_k_and_d():
    assert match_axiom(parse("[z](r -> s) -> ([z]r -> [z]s)"), SPDL0) == "K"
    assert match_axiom(parse("[a;b]p -> <a;b>p"), SPDL0) == "D"
    assert match_axiom(parse("p -> p | q"), SPDL0) == "CPL"


def test_match_axiom_rejects_mixed_bindings():
    assert match_axiom(parse("[a](p -> q) -> ([b]p -> [a]q)"), SPDL0) is None


def test_match_axiom_respects_language():
    assert match_axiom(parse("box p -> p"), SPDL0) is None
    assert match_axiom(parse("<a>p -> <a>p"), DTEL) is None


def test_match_axiom_dtel_schemes():
    assert match_axiom(parse("K q -> box q"), DTEL) == "KI"
    assert match_axiom(parse("O[b] ~q <-> ~O[b] q & O[b] top"), DTEL) == "NotPC"
    assert match_axiom(parse("O[a] (p & q) <-> O[a] p & O[a] q"), DTEL) == "AndC"
    assert match_axiom(
        parse("O[a] top -> (O[a] K p <-> K (O[a] top -> O[a] p))"), DTEL
    ) == "KPC"
    assert match_axiom(parse("box ~O[a] p & O[a] top -> O[a] box ~p"), DTEL) == "Openness"


def test_match_axiom_cpl_is_tried_last():
    # an instance of K is reported as K even though it is also built from
    # tautology-shaped material
    assert match_axiom(parse("[a](p -> p) -> ([a]p -> [a]p)"), SPDL0) == "K"
    assert match_axiom(parse("[a]p -> [a]p"), SPDL0) == "CPL"


def test_match_scheme_returns_bindings():
    got = match_scheme(
        parse("[a;b]((p | q) -> r) -> ([a;b](p | q) -> [a;b]r)"),
        dict(SPDL0.schemes)["K"],
    )
    assert got is not None
    fenv, penv = got
    assert fenv["p"] == parse("p | q")
    assert fenv["q"] == parse("r")
    assert penv["pi"] == parse_program("a;b")


def test_match_scheme_needs_consistent_bindings():
    template = dict(SPDL0.schemes)["K"]
    assert match_scheme(parse("[a](p -> q) -> ([a]p -> [b]q)"), template) is None


def test_instantiate_then_match_all_schemes():
    filler = {"p": parse("q -> r"), "q": parse("~p")}
    progs = {"pi": parse_program("a;b"), "pi1": parse_program("a"), "pi2": parse_program("b")}
    for system in (SPDL0, SPDL0_SEQ, DTEL):
        for name, template in system.schemes:
            inst = instantiate_scheme(template, filler, progs)
            assert match_scheme(inst, template) is not None, name
            assert match_axiom(inst, system) == name


def test_get_system():
    assert get_system("SPDL0") is SPDL0
    assert get_system("SPDL0_SEQ") is SPDL0_SEQ
    assert get_system("DTEL") is DTEL
    with pytest.raises(ValueError, match="unknown proof system"):
        get_system("S5")


# --- derivations: acceptance ---------------------------------------------------------


@pytest.mark.parametrize("derivation", [BOX_DIST, KNOW_FACTIVE, SEQ_HALF, MON_EXAMPLE, NEC_CHAIN])
def test_sample_derivations_check_out(derivation):
    result = check_derivation(derivation)
    assert result.ok, (result.step, result.error, result.detail)


def test_spdl0_steps_are_semantically_valid():
    # every line of an accepted relational derivation is globally true on
    # every serial model (soundness, spot-checked)
    for i in range(100):
        m = gen_model(GenConfig(seed=500, max_points=4, num_programs=2, model_class="pdl_serial"), index=i)
        for step in BOX_DIST.steps:
            assert eval_pdl_relational(m, step.formula) == full_mask(m.n)


def test_dtel_steps_are_semantically_valid():
    for i in range(100):
        m = gen_model(GenConfig(seed=501, max_points=4, model_class="subset"), index=i)
        ev = SubsetEvaluator(m)
        for derivation in (KNOW_FACTIVE, MON_EXAMPLE, NEC_CHAIN):
            for step in derivation.steps:
                for u in m.space.opens_sorted():
                    assert ev.extension(step.formula, u) == u


# --- derivations: rejection -----------------------------------------------------------


def result_of(*steps, system="SPDL0"):
    return check_derivation(Derivation(system, tuple(steps)))


def test_forward_reference():
    r = result_of(
        mp("[a](p & q) -> [a]q", 2, 3),
        ax("(p & q) -> q", "CPL"),
    )
    assert (r.ok, r.step, r.error) == (False, 1, "ForwardReference")


def test_self_reference():
    r = result_of(
        ax("p -> p", "CPL"),
        mp("p", 2, 2),
    )
    assert (r.ok, r.step, r.error) == (False, 2, "ForwardReference")


def test_cpl_must_be_a_tautology():
    r = result_of(ax("p -> q", "CPL"))
    assert (r.ok, r.step, r.error) == (False, 1, "BadAxiomInstance")
    assert "tautology" in r.detail


def test_unknown_scheme_name():
    r = result_of(ax("[a]p -> <a>p", "T"))
    assert (r.ok, r.step, r.error) == (False, 1, "BadAxiomInstance")
    assert "T" in r.detail


def test_not_an_instance():
    r = result_of(ax("[a](p -> q) -> ([b]p -> [a]q)", "K"))
    assert (r.ok, r.step, r.error) == (False, 1, "BadAxiomInstance")


def test_axiom_outside_language():
    r = result_of(ax("box p -> p", "CPL"))
    assert (r.ok, r.step, r.error) == (False, 1, "BadAxiomInstance")
    assert "language" in r.detail


def test_seq_axiom_only_in_seq_system():
    r = result_of(ax("<a;b>p <-> <a><b>p", "Seq"))
    assert (r.ok, r.step, r.error) == (False, 1, "BadAxiomInstance")
    assert check_derivation(SEQ_HALF).ok


def test_swapped_mp_arguments():
    r = result_of(
        ax("(p & q) -> q", "CPL"),
        nec("[a]((p & q) -> q)", "a", 1),
        ax("[a]((p & q) -> q) -> ([a](p & q) -> [a]q)", "K"),
        mp("[a](p & q) -> [a]q", 3, 2),
    )
    assert (r.ok, r.step, r.error) == (False, 4, "BadRuleApplication")


def test_mp_with_wrong_antecedent():
    r = result_of(
        ax("p -> (q -> p)", "CPL"),
        ax("p | ~p", "CPL"),
        mp("q -> p", 2, 1),
    )
    assert (r.ok, r.step, r.error) == (False, 3, "BadRuleApplication")


def test_nec_conclusion_mismatch():
    r = result_of(
        ax("p -> p", "CPL"),
        nec("[b](q -> q)", "b", 1),
    )
    assert (r.ok, r.step, r.error) == (False, 2, "BadRuleApplication")


def test_program_necessitation_rejected_in_dtel():
    r = result_of(
        ax("p -> p", "CPL"),
        nec("O[a] (p -> p)", "a", 1),
        system="DTEL",
    )
    assert (r.ok, r.step, r.error) == (False, 2, "BadRuleApplication")
    assert "not a rule" in r.detail


def test_knowledge_necessitation_rejected_in_spdl0():
    r = result_of(
        ax("p -> p", "CPL"),
        nec("K (p -> p)", "K", 1),
    )
    assert (r.ok, r.step, r.error) == (False, 2, "BadRuleApplication")


def test_monotonicity_rejected_in_spdl0():
    r = result_of(
        ax("p & q -> p", "CPL"),
        mon("O[a] (p & q) -> O[a] p", "a", 1),
    )
    assert (r.ok, r.step, r.error) == (False, 2, "BadRuleApplication")


def test_monotonicity_needs_an_implication():
    r = result_of(
        ax("p | ~p", "CPL"),
        mon("O[a] p -> O[a] ~p", "a", 1),
        system="DTEL",
    )
    assert (r.ok, r.step, r.error) == (False, 2, "BadRuleApplication")
    assert "implication" in r.detail


# --- JSON ------------------------------------------------------------------------------


def derivation_to_json(derivation):
    """The document ``derivation_from_json`` reads, the round trip's other half."""
    steps = []
    for step in derivation.steps:
        by = step.by
        if isinstance(by, AxiomStep):
            raw: dict = {"axiom": by.name}
        elif isinstance(by, MPStep):
            raw = {"mp": [by.antecedent, by.implication]}
        elif isinstance(by, NecStep):
            raw = {"nec": {"mod": by.mod, "from": by.source}}
        else:
            raw = {"mon": {"prog": by.prog, "from": by.source}}
        steps.append({"formula": format_formula(step.formula), "by": raw})
    return {"system": derivation.system, "steps": steps}


@pytest.mark.parametrize("derivation", [BOX_DIST, KNOW_FACTIVE, SEQ_HALF, MON_EXAMPLE, NEC_CHAIN])
def test_derivation_json_roundtrip(derivation):
    assert derivation_from_json(derivation_to_json(derivation)) == derivation


def test_derivation_from_handwritten_json():
    obj = {
        "system": "SPDL0",
        "steps": [
            {"formula": "(p & q) -> q", "by": {"axiom": "CPL"}},
            {"formula": "[a]((p & q) -> q)", "by": {"nec": {"mod": "a", "from": 1}}},
            {"formula": "[a]((p & q) -> q) -> ([a](p & q) -> [a]q)", "by": {"axiom": "K"}},
            {"formula": "[a](p & q) -> [a]q", "by": {"mp": [2, 3]}},
        ],
    }
    assert derivation_from_json(obj) == BOX_DIST
    assert check_derivation(derivation_from_json(obj)).ok
