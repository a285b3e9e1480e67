"""Hilbert-style proof systems and a derivation checker.

Axiom schemes are stored as formula templates: every atom in a template is a
formula metavariable and every atomic program name a program metavariable.
``match_scheme`` anti-unifies a candidate against a template, demanding
consistent bindings; nothing is rearranged, so commuted or contraposed
variants of a scheme do not match.  Classical tautologies are recognised by
truth table over the maximal non-Boolean subformulas.

Derivations are step lists with 1-based cross references.  ``{"mp": [i, j]}``
reads: step i is the antecedent, step j proves ``step_i -> this step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .checker import evaluate
from .formula import (
    BOOLEAN,
    Atom,
    Atomic,
    BoxPdl,
    Formula,
    Implies,
    Int,
    Know,
    Language,
    Next,
    ParseError,
    Program,
    fold,
    in_language,
    parse,
    parse_program,
    substitute,
)

MAX_TABLE_VARS = 16


class _TruthTable:
    """Semantics whose points are the rows of a truth table: atoms and modal
    subformulas are opaque variables, and variable j holds at row r iff bit j
    of r is set."""

    def __init__(self, leaves: list[Formula]):
        rows = 1 << len(leaves)
        self.all = (1 << rows) - 1
        self.var = {}
        for j, leaf in enumerate(leaves):
            half = 1 << j  # rows come in runs of 2^j with variable j off, then on
            self.var[leaf] = self.all // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)

    shifts = frozenset()

    def full(self, c: int) -> int:
        return self.all

    def atom(self, node: Formula, c: int) -> int:
        return self.var.get(node, 0)  # 0 below the leaves, where nothing reads it

    def modal(self, node: Formula, body: int, c: int) -> int:
        return self.var.get(node, 0)


def is_tautology(f: Formula) -> bool:
    """Truth-table check treating modal subformulas as opaque variables."""
    # the leaves are the non-Boolean nodes reached from the root through
    # connectives only, keyed by node so that equal leaves count once
    leaves: dict[Formula, None] = {}
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node) in BOOLEAN:
            stack += node.children
        else:
            leaves[node] = None
    if len(leaves) > MAX_TABLE_VARS:
        raise ValueError(
            f"tautology check needs {len(leaves)} variables, over the cap of {MAX_TABLE_VARS}"
        )
    table = _TruthTable(list(leaves))
    return evaluate(f, table) == table.all


def match_scheme(
    f: Formula, template: Formula
) -> Optional[tuple[dict[str, Formula], dict[str, Program]]]:
    """Bindings under which the template instantiates to f, or None."""
    env: dict[type, dict] = {Atom: {}, Atomic: {}}
    stack = [(template, f)]
    while stack:
        t, g = stack.pop()
        names = env.get(type(t))
        if names is not None:  # a formula or program metavariable
            bound = names.setdefault(t.name, g)
            if bound is not g and bound != g:
                return None
        elif type(t) is not type(g):
            return None
        else:
            stack.extend(reversed(list(zip(t.children, g.children))))
    return env[Atom], env[Atomic]


def instantiate_scheme(
    template: Formula,
    formulas: Mapping[str, Formula],
    programs: Mapping[str, Program],
) -> Formula:
    """Programs first, then atoms, so substituted formulas are never touched
    by the program pass, while atoms inside substituted programs are.  One
    fold over the template does both."""

    def visit(node: Formula, kids: list) -> Formula:
        if type(node) is Atom:
            return formulas.get(node.name, node)
        if type(node) is Atomic:
            prog = programs.get(node.name, node)
            return prog if type(prog) is Atomic else substitute(prog, formulas)
        return node.rebuild(kids)

    return fold(template, visit)


@dataclass(frozen=True)
class ProofSystem:
    name: str
    language: Language
    schemes: tuple[tuple[str, Formula], ...]
    rules: frozenset[str]


_SPDL0_SCHEMES = (
    ("K", parse("[pi](p -> q) -> ([pi] p -> [pi] q)")),
    ("D", parse("[pi] p -> <pi> p")),
)

SPDL0 = ProofSystem(
    name="SPDL0",
    language=Language.PDL,
    schemes=_SPDL0_SCHEMES,
    rules=frozenset({"mp", "nec_prog"}),
)

SPDL0_SEQ = ProofSystem(
    name="SPDL0_SEQ",
    language=Language.PDL,
    schemes=_SPDL0_SCHEMES + (("Seq", parse("<pi1;pi2> p <-> <pi1><pi2> p")),),
    rules=frozenset({"mp", "nec_prog"}),
)

DTEL = ProofSystem(
    name="DTEL",
    language=Language.K_BOX_NEXT,
    schemes=(
        ("K_K", parse("K (p -> q) -> (K p -> K q)")),
        ("T_K", parse("K p -> p")),
        ("4_K", parse("K p -> K K p")),
        ("5_K", parse("~K p -> K ~K p")),
        ("K_Box", parse("box (p -> q) -> (box p -> box q)")),
        ("T_Box", parse("box p -> p")),
        ("4_Box", parse("box p -> box box p")),
        ("KI", parse("K p -> box p")),
        ("NotPC", parse("O[pi] ~p <-> ~O[pi] p & O[pi] top")),
        ("AndC", parse("O[pi] (p & q) <-> O[pi] p & O[pi] q")),
        ("KPC", parse("O[pi] top -> (O[pi] K p <-> K (O[pi] top -> O[pi] p))")),
        ("Openness", parse("box ~O[pi] p & O[pi] top -> O[pi] box ~p")),
    ),
    rules=frozenset({"mp", "nec_K", "nec_box", "mon"}),
)

_SYSTEMS = {s.name: s for s in (SPDL0, SPDL0_SEQ, DTEL)}


def get_system(name: str) -> ProofSystem:
    try:
        return _SYSTEMS[name]
    except KeyError:
        raise ValueError(f"unknown proof system {name!r}") from None


def match_axiom(f: Formula, system: ProofSystem) -> Optional[str]:
    """Name of a scheme the formula instantiates; CPL is tried last."""
    if not in_language(f, system.language):
        return None
    for name, template in system.schemes:
        if match_scheme(f, template) is not None:
            return name
    if is_tautology(f):
        return "CPL"
    return None


# --- derivations ----------------------------------------------------------------


@dataclass(frozen=True)
class AxiomStep:
    name: str


@dataclass(frozen=True)
class MPStep:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class NecStep:
    mod: str  # a program expression, or K / box in DTEL
    source: int


@dataclass(frozen=True)
class MonStep:
    prog: str
    source: int


Justification = Union[AxiomStep, MPStep, NecStep, MonStep]


@dataclass(frozen=True)
class Step:
    formula: Formula
    by: Justification


@dataclass(frozen=True)
class Derivation:
    system: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    step: int | None = None
    error: str | None = None
    detail: str = ""

    def to_json(self) -> dict:
        if self.ok:
            return {"ok": True}
        return {"ok": False, "step": self.step, "error": self.error, "detail": self.detail}


def check_derivation(derivation: Derivation) -> CheckResult:
    system = get_system(derivation.system)
    steps = derivation.steps

    def fail(k: int, error: str, detail: str) -> CheckResult:
        return CheckResult(False, k, error, detail)

    for k, step in enumerate(steps, start=1):
        f = step.formula
        by = step.by

        if isinstance(by, AxiomStep):
            if not in_language(f, system.language):
                return fail(k, "BadAxiomInstance", "formula is outside the system language")
            if by.name == "CPL":
                try:
                    if not is_tautology(f):
                        return fail(k, "BadAxiomInstance", "not a tautology")
                except ValueError as exc:
                    return fail(k, "BadAxiomInstance", str(exc))
                continue
            template = dict(system.schemes).get(by.name)
            if template is None:
                return fail(k, "BadAxiomInstance", f"no scheme named {by.name!r}")
            if match_scheme(f, template) is None:
                return fail(k, "BadAxiomInstance", f"not an instance of {by.name}")
            continue

        # rule steps share the cross-reference check
        sources = (
            [by.antecedent, by.implication] if isinstance(by, MPStep) else [by.source]
        )
        bad = [i for i in sources if not 1 <= i < k]
        if bad:
            return fail(k, "ForwardReference", f"step {bad[0]} is not an earlier step")

        if isinstance(by, MPStep):
            premise = steps[by.antecedent - 1].formula
            implication = steps[by.implication - 1].formula
            if implication != Implies(premise, f):
                return fail(
                    k,
                    "BadRuleApplication",
                    f"step {by.implication} is not (step {by.antecedent} -> step {k})",
                )
            continue

        if isinstance(by, NecStep):
            premise = steps[by.source - 1].formula
            if by.mod == "K":
                if "nec_K" not in system.rules:
                    return fail(k, "BadRuleApplication", "no K necessitation in this system")
                expected: Formula = Know(premise)
            elif by.mod == "box":
                if "nec_box" not in system.rules:
                    return fail(k, "BadRuleApplication", "no box necessitation in this system")
                expected = Int(premise)
            else:
                if "nec_prog" not in system.rules:
                    # execution modalities lose necessitation once programs may halt
                    return fail(
                        k, "BadRuleApplication", "program necessitation is not a rule here"
                    )
                try:
                    prog = parse_program(by.mod)
                except ParseError as exc:
                    return fail(k, "BadRuleApplication", f"bad program: {exc}")
                expected = BoxPdl(prog, premise)
            if f != expected or not in_language(f, system.language):
                return fail(
                    k, "BadRuleApplication", f"conclusion is not step {by.source} necessitated"
                )
            continue

        if isinstance(by, MonStep):
            if "mon" not in system.rules:
                return fail(k, "BadRuleApplication", "no monotonicity rule in this system")
            premise = steps[by.source - 1].formula
            if not isinstance(premise, Implies):
                return fail(k, "BadRuleApplication", f"step {by.source} is not an implication")
            try:
                prog = parse_program(by.prog)
            except ParseError as exc:
                return fail(k, "BadRuleApplication", f"bad program: {exc}")
            expected = Implies(Next(prog, premise.left), Next(prog, premise.right))
            if f != expected or not in_language(f, system.language):
                return fail(
                    k,
                    "BadRuleApplication",
                    f"conclusion does not monotonise step {by.source} along {by.prog}",
                )
            continue

        return fail(k, "BadRuleApplication", f"unknown justification {by!r}")

    return CheckResult(True)


# --- JSON -------------------------------------------------------------------------


def _typed(value: object, kind: type, what: str):
    # exact types: JSON's true is no step number, and neither is 1.5
    if type(value) is not kind:
        name = "an integer" if kind is int else "a string"
        raise ValueError(f"{what} must be {name}, not {value!r}")
    return value


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, not {value!r}")
    return value


def derivation_from_json(obj: object) -> Derivation:
    """Read a derivation document; a wrong shape or type raises ValueError."""
    obj = _object(obj, "a derivation")
    system = _typed(obj.get("system"), str, "the system")
    if not isinstance(obj.get("steps"), list):
        raise ValueError(f"steps must be a list, not {obj.get('steps')!r}")
    steps = []
    for k, raw in enumerate(obj["steps"], start=1):
        raw = _object(raw, f"step {k}")
        f = parse(_typed(raw.get("formula"), str, f"the formula of step {k}"))
        by = _object(raw.get("by"), f"the justification of step {k}")
        ref = f"a step reference in step {k}"
        if "axiom" in by:
            just: Justification = AxiomStep(_typed(by["axiom"], str, f"the axiom of step {k}"))
        elif "mp" in by:
            pair = by["mp"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"mp in step {k} must list two steps, not {pair!r}")
            just = MPStep(_typed(pair[0], int, ref), _typed(pair[1], int, ref))
        elif "nec" in by:
            nec = _object(by["nec"], f"nec in step {k}")
            mod = _typed(nec.get("mod"), str, f"the modality of step {k}")
            just = NecStep(mod, _typed(nec.get("from"), int, ref))
        elif "mon" in by:
            mon = _object(by["mon"], f"mon in step {k}")
            prog = _typed(mon.get("prog"), str, f"the program of step {k}")
            just = MonStep(prog, _typed(mon.get("from"), int, ref))
        else:
            raise ValueError(f"unknown justification: {by!r}")
        steps.append(Step(f, just))
    return Derivation(system=system, steps=tuple(steps))
