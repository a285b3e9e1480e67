"""Parser, printer, and AST utilities.

Round-trip is the load-bearing property: parse(format(f)) must reproduce f
exactly for every formula the generators can emit, or every downstream
JSON/CLI surface silently corrupts formulas.
"""

import random
import re
import sys
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn.checker import translate_pdl
from topodyn.formula import (
    MAX_NESTING,
    MODAL,
    And,
    Atom,
    Atomic,
    BoxPdl,
    Cl,
    Diamond,
    FragmentViolation,
    Iff,
    Implies,
    Int,
    KHat,
    Know,
    Language,
    Next,
    Not,
    Or,
    ParseError,
    Seq,
    Top,
    atoms,
    expand_duals,
    fold,
    format_formula,
    format_program,
    formula_from_json,
    formula_to_json,
    in_language,
    modal_depth,
    parse,
    parse_program,
    postorder,
    program_depth,
    program_names,
    substitute,
)
from topodyn.formula import Test as ProgramTest
from topodyn.formula import _BIT, _Parser
from topodyn.harness import gen_formula


# --- concrete syntax ----------------------------------------------------------


def test_parse_pdl_example():
    f = parse("<a;b>p -> [a][b]p")
    assert f == Implies(
        Diamond(Seq(Atomic("a"), Atomic("b")), Atom("p")),
        BoxPdl(Atomic("a"), BoxPdl(Atomic("b"), Atom("p"))),
    )


def test_parse_interior_closure():
    assert parse("box (p -> dia q)") == Int(Implies(Atom("p"), Cl(Atom("q"))))


def test_parse_knowledge_and_test():
    f = parse("O[?(p & box q)] K r")
    assert f == Next(ProgramTest(And(Atom("p"), Int(Atom("q")))), Know(Atom("r")))
    assert parse("Khat p") == KHat(Atom("p"))


def test_parse_top_and_atom_names():
    assert parse("top") == Top()
    assert parse("x_1 & yz9") == And(Atom("x_1"), Atom("yz9"))


def test_precedence_chain():
    # ~ binds tightest, then &, |, ->, <->
    f = parse("~p & q | r -> s <-> t")
    assert f == Iff(Implies(Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s")), Atom("t"))


def test_implies_right_associative():
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))
    assert parse("p <-> q <-> r") == Iff(Atom("p"), Iff(Atom("q"), Atom("r")))


def test_and_left_associative():
    assert parse("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))


def test_seq_left_associative():
    assert parse_program("a;b;c") == Seq(Seq(Atomic("a"), Atomic("b")), Atomic("c"))
    assert parse_program("a;(b;c)") == Seq(Atomic("a"), Seq(Atomic("b"), Atomic("c")))


def test_modalities_bind_tighter_than_and():
    assert parse("[a]p & q") == And(BoxPdl(Atomic("a"), Atom("p")), Atom("q"))
    assert parse("K p | q") == Or(Know(Atom("p")), Atom("q"))


@pytest.mark.parametrize(
    "text",
    [
        "(p &",
        "p -> ",
        "<a p",
        "[a;]p",
        "O[] p",
        "box",
        "p q",
        "?(p)",  # bare program where a formula is expected
        "<>p",
        "p & & q",
    ],
)
def test_parse_errors_carry_position(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert re.search(r"line \d+, column \d+", str(exc.value))


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("p &\n  #", "unexpected character '#'", 2, 3),
        ("p\n\t& q\t$ r", "unexpected character '$'", 2, 6),
        ("(p &\n\tq  \n", "expected ')', found 'end of input'", 3, 1),
        ("<a>(p\n\t| q", "expected ')', found 'end of input'", 2, 5),
        ("p\n  & q  \n\t r ", "unexpected trailing input 'r'", 3, 3),
        ("(p)\n\t)", "unexpected trailing input ')'", 2, 2),
    ],
)
def test_error_positions_count_lines_and_columns_from_the_text(text, message, line, col):
    # a tab is one column, and the end of input sits past any trailing blanks
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{message} (line {line}, column {col})"


@pytest.mark.parametrize("text", [
    "<a>p & [b]q -> r",
    "~(p | q) <-> K Khat box dia p",
    "O[a;?(box p);(b;c)] (p -> q -> r)",
    "[a]~<b>(p & top) | q & r",
])
def test_spacing_between_tokens_does_not_change_the_formula(text):
    tokens = re.findall(r"[a-z][a-z0-9_]*|<->|->|Khat|\S", text)
    want = parse(text)
    for sep in ("", " ", "\n", "\t", " \n\t "):
        # names and reserved words next to each other need a blank between them
        glued = tokens[0]
        for tok in tokens[1:]:
            glue = sep or (" " if glued[-1].isalnum() and tok[0].isalnum() else "")
            glued += glue + tok
        assert parse(f"{sep}{glued}{sep}") == want, repr(glued)


CHAINS = {
    "&": (lambda k: " & ".join(["p"] * (k + 1)), "formula"),
    "|": (lambda k: " | ".join(["p"] * (k + 1)), "formula"),
    "->": (lambda k: " -> ".join(["p"] * (k + 1)), "formula"),
    "<->": (lambda k: " <-> ".join(["p"] * (k + 1)), "formula"),
    "~": (lambda k: "~" * k + "p", "formula"),
    ";": (lambda k: ";".join(["a"] * (k + 1)), "program"),
}


@pytest.mark.parametrize("op", CHAINS)
def test_a_chain_is_refused_once_it_alone_passes_the_nesting_cap(op):
    # k operators nest a chain k + 1 levels deep, so MAX_NESTING - 1 of them fit
    chain, rule = CHAINS[op]
    fits = _Parser(chain(MAX_NESTING - 1))
    fits.finish(getattr(fits, rule))
    for k in (MAX_NESTING, 100 * MAX_NESTING):
        parser = _Parser(chain(k))
        with pytest.raises(ParseError, match=f"^formula nests deeper than {MAX_NESTING} levels$"):
            parser.finish(getattr(parser, rule))
        # refused inside the chain loop, long before the end of the input
        assert parser.pos <= 2 * MAX_NESTING


def test_deep_brackets_deep_in_the_call_stack_are_a_parse_error():
    text = "(" * MAX_NESTING + "p" + ")" * MAX_NESTING
    assert parse(text) == parse("p")

    def nested(frames):
        return nested(frames - 1) if frames else parse(text)

    # leave parse 50 frames: room to reach finish, too few for 100 levels
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    with pytest.raises(ParseError, match="^brackets nest too deeply to parse at this call depth$"):
        nested(sys.getrecursionlimit() - depth - 50)


def test_reserved_words_are_not_atoms():
    with pytest.raises(ParseError):
        parse("box & p")
    with pytest.raises(ParseError):
        parse("<dia>p")


def test_test_program_body_must_be_box_next():
    parse("O[?(box p & O[a] q)] r")  # fine: body stays in the box/next fragment
    with pytest.raises(FragmentViolation):
        parse("O[?(K p)] q")
    with pytest.raises(FragmentViolation):
        parse("O[?(<a>p)] q")
    with pytest.raises(FragmentViolation):
        ProgramTest(Know(Atom("p")))


# --- pretty printer round-trip ------------------------------------------------


def _ast_formulas(lang):
    leaf = st.one_of(st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Top()]))
    progs = st.sampled_from([Atomic("a"), Atomic("b")])

    def extend(children):
        unary = [Not]
        binary = [And, Or, Implies, Iff]
        opts = [
            st.builds(c, children) for c in unary
        ] + [st.builds(c, children, children) for c in binary]
        if lang is Language.PDL:
            seq = st.builds(Seq, progs, progs)
            opts.append(st.builds(Diamond, st.one_of(progs, seq), children))
            opts.append(st.builds(BoxPdl, st.one_of(progs, seq), children))
        else:
            opts.append(st.builds(Int, children))
            opts.append(st.builds(Cl, children))
            opts.append(st.builds(Next, progs, children))
        if lang is Language.K_BOX_NEXT:
            opts.append(st.builds(Know, children))
            opts.append(st.builds(KHat, children))
        return st.one_of(opts)

    return st.recursive(leaf, extend, max_leaves=25)


@given(_ast_formulas(Language.PDL))
def test_roundtrip_pdl(f):
    assert parse(format_formula(f)) == f


@given(_ast_formulas(Language.BOX_NEXT))
def test_roundtrip_box_next(f):
    assert parse(format_formula(f)) == f


@settings(max_examples=200)
@given(_ast_formulas(Language.K_BOX_NEXT))
def test_roundtrip_k_box_next(f):
    assert parse(format_formula(f)) == f


def test_roundtrip_generated_corpus():
    # the same sampler the audit harness uses, across all three languages
    rng = random.Random(90210)
    langs = [Language.PDL, Language.BOX_NEXT, Language.K_BOX_NEXT]
    for i in range(10_000):
        lang = langs[i % 3]
        f = gen_formula(
            rng,
            ("p", "q", "r"),
            ("a", "b"),
            modal_budget=3,
            size_budget=7,
            lang=lang,
            allow_seq=lang is Language.PDL,
            allow_tests=lang is not Language.PDL,
        )
        assert in_language(f, lang)
        assert parse(format_formula(f)) == f


def test_program_roundtrip():
    for text in ["a", "a;b", "a;b;c", "a;(b;c)", "?(box p)"]:
        p = parse_program(text)
        assert parse_program(format_program(p)) == p


# --- language fragments ------------------------------------------------------


def test_in_language_table():
    cases = [
        ("<a>p", True, False, False),
        ("box p", False, True, True),
        ("O[a] p & dia q", False, True, True),
        ("K p", False, False, True),
        ("[a;b]p", True, False, False),
        ("O[?(p)] q", False, True, True),
        ("p -> q", True, True, True),
    ]
    for text, pdl, bn, kbn in cases:
        f = parse(text)
        assert in_language(f, Language.PDL) is pdl, text
        assert in_language(f, Language.BOX_NEXT) is bn, text
        assert in_language(f, Language.K_BOX_NEXT) is kbn, text


def test_tests_not_allowed_in_pdl_programs():
    f = Diamond(ProgramTest(Atom("p")), Atom("q"))
    assert not in_language(f, Language.PDL)


# --- depth and measures ------------------------------------------------------


def test_modal_depth_values():
    assert modal_depth(parse("p & ~q")) == 0
    assert modal_depth(parse("<a>p")) == 1
    assert modal_depth(parse("<a;b>p")) == 2  # one step per program letter
    assert modal_depth(parse("O[a] O[b] p")) == 2
    assert modal_depth(parse("[a;b;c]p & <a>p")) == 3
    assert modal_depth(parse("box dia p")) == 0  # interior operators are free
    assert modal_depth(parse("K O[a] p")) == 1


def test_modal_depth_matches_seq_expansion():
    assert modal_depth(parse("O[a] O[b] p")) == program_depth(parse_program("a;b"))


def test_test_program_depth_is_body_depth():
    assert program_depth(ProgramTest(parse("O[a] p"))) == 1
    assert modal_depth(parse("O[?(O[a] p)] q")) == 1
    assert modal_depth(parse("O[?(p)] q")) == 0


# --- facts set by the node constructors -----------------------------------------


def _depth_step(node, kids):
    """Modal depth as a fold: the reference definition."""
    if type(node) is Atomic:
        return 1
    if type(node) is Seq or type(node) in MODAL:
        return kids[0] + kids[1]
    return max(kids, default=0)


def _assert_facts(f):
    """The modal depth, languages and AST depth f's constructor set are those
    the reference folds over f's nodes give."""
    assert modal_depth(f) == fold(f, _depth_step)
    langs = reduce(and_, [node._langs for node in postorder(f)])
    for lang in Language:
        assert in_language(f, lang) is bool(langs & _BIT[lang])
    assert f._height == fold(f, lambda node, kids: 1 + max(kids, default=0))


def test_constructors_set_the_folded_facts():
    rng = random.Random(20261019)
    langs = list(Language)
    drawn = [gen_formula(rng, ("p", "q", "r"), ("a", "b"), modal_budget=4, size_budget=8,
                         lang=langs[i % 3], allow_seq=True, allow_tests=True)
             for i in range(600)]
    kinds = {type(node) for f in drawn for node in postorder(f)}
    assert {Seq, ProgramTest, Diamond, Next, Know} <= kinds
    parsed = [parse(format_formula(f)) for f in drawn] + [parse(text) for text in (
        "<a;b;?(p)>q", "O[a;?(box p & O[b] q)] K r", "((p)) <-> [a](q -> <b;a>top)",
        "Khat dia ~O[?(O[a;a] p)] p",
    )]
    swap = {"p": parse("O[a;b] box q"), "q": parse("top")}
    rebuilt = [g for f in drawn for g in (
        substitute(f, swap), expand_duals(f), formula_from_json(formula_to_json(f)),
    )] + [translate_pdl(f) for f in drawn if in_language(f, Language.PDL)]
    for f in drawn:
        for node in postorder(f):  # every subterm, programs and test bodies too
            _assert_facts(node)
    for f in parsed + rebuilt:
        _assert_facts(f)


def test_deep_chains_set_their_facts_without_recursion():
    f = body = Atom("p")
    prog = Atomic("a")
    for _ in range(3000):
        f, body, prog = Not(f), Next(Atomic("a"), body), Seq(prog, Atomic("a"))
    for chain, depth in ((f, 0), (body, 3000), (prog, 3001)):
        assert modal_depth(chain) == depth and chain._height == 3001
        _assert_facts(chain)


def test_atoms_and_program_names():
    f = parse("<a;b>(p & q) -> [c]r")
    assert atoms(f) == {"p", "q", "r"}
    assert program_names(f) == {"a", "b", "c"}
    assert program_names(parse("O[?(box p)] q")) == set()


# --- substitution -------------------------------------------------------------


def test_substitute_atom():
    f = parse("<a>p & p")
    g = substitute(f, {"p": parse("q -> r")})
    assert g == parse("<a>(q -> r) & (q -> r)")


def test_substitute_untouched_atoms():
    f = parse("p & q")
    assert substitute(f, {"p": Top()}) == And(Top(), Atom("q"))


def test_substitute_inside_test_body():
    f = parse("O[?(p)] q")
    g = substitute(f, {"p": parse("box q")})
    assert g == parse("O[?(box q)] q")


def test_substitute_rejects_fragment_escape():
    f = parse("O[?(p)] q")
    with pytest.raises(FragmentViolation):
        substitute(f, {"p": parse("K q")})


# --- dual expansion ------------------------------------------------------------


def test_expand_duals_shapes():
    assert expand_duals(parse("dia p")) == parse("~box ~p")
    assert expand_duals(parse("Khat p")) == parse("~K ~p")
    assert expand_duals(parse("<a>p")) == parse("<a>p")  # relational duals stay


def test_expand_duals_recurses():
    assert expand_duals(parse("box dia p")) == parse("box ~box ~p")


# --- JSON codecs ----------------------------------------------------------------


@given(_ast_formulas(Language.K_BOX_NEXT))
def test_formula_json_roundtrip(f):
    assert formula_from_json(formula_to_json(f)) == f


def test_formula_json_roundtrip_pdl():
    f = parse("<a;b>p -> [a][b]p")
    assert formula_from_json(formula_to_json(f)) == f
