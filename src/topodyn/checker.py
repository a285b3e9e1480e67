"""Model checkers for the three semantics, over one evaluator core.

``evaluate`` runs through a compiled formula (see ``formula.compile``) and
computes the connectives itself.  A semantics supplies the rest: ``full(c)``,
every point at context ``c``; ``atom(node, c)``; ``modal(node, body, c)``, a
modality applied to its body's extension; and ``shifts``, the modalities whose
body is read at another context, ``step(node, c)``.  Contexts are ints: the
scenario set in subset spaces, the stratum for network spaces, 0 where truth
does not depend on one.

Relational: ``<prog>`` is existential preimage along the program relation.

Dynamic-topological: programs are total maps, ``O[prog]`` is preimage,
``box``/``dia`` are interior/closure, and the relational modalities are read
through the embedding ``<prog> f == dia O[prog] f``, so their extensions are
the closure (dually, interior) of the preimage of the body's extension.

Subset-space: truth sits at scenarios (x, U).  Knowledge quantifies over U,
interior is taken in the ambient space, and ``O[prog]`` moves the whole
scenario along a partial open map.  Extensions are memoized per (node id,
open) pair, which keeps batch sweeps linear.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import or_
from typing import Optional

from .formula import (
    BOOLEAN,
    And,
    Atom,
    Atomic,
    BoxPdl,
    Cl,
    Diamond,
    Formula,
    FragmentViolation,
    Iff,
    Implies,
    Int,
    KHat,
    Know,
    Language,
    Next,
    Node,
    NodeArray,
    Not,
    Or,
    Program,
    Seq,
    Test,
    Top,
    compile,
    fold,
    format_formula,
    in_language,
    kinds,
    seq_steps,
)
from .models import (
    DTModel,
    PDLModel,
    Scenario,
    SubsetModel,
    image,
    preimage,
    program_function,
    validate_scenario,
)
from .topology import iter_points

_PROGRAMS = (Atomic, Seq, Test)


def evaluate(f: Formula, sem, ctx: int = 0, memo: Optional[dict] = None) -> int:
    """Extension of f at context ctx, by one loop over the node array.

    ``memo`` maps ``context * len(array) + id`` to masks; pass the same dict
    again, for the same formula, to reuse what it holds.  When no node of f
    shifts the context, every node is read at ctx, in order (nodes inside
    test programs too, harmlessly); otherwise ``_demand`` first lists the
    (node, context) pairs the root needs.
    """
    nodes = compile(f)
    width = len(nodes)
    root = ctx * width + width - 1
    if memo is None:
        memo = {}
    elif root in memo:
        return memo[root]
    full, atom, modal = sem.full, sem.atom, sem.modal
    if not sem.shifts or sem.shifts.isdisjoint(kinds(f)):
        tasks = zip(range(width), repeat(ctx), repeat(ctx))
    else:
        tasks = _demand(nodes, ctx, memo, sem)
    for i, c, s in tasks:
        cls, kids, node = nodes[i]
        base = c * width
        if cls is Atom:
            m = atom(node, c)
        elif cls is And:
            m = memo[base + kids[0]] & memo[base + kids[1]]
        elif cls is Or:
            m = memo[base + kids[0]] | memo[base + kids[1]]
        elif cls is Not:
            m = full(c) & ~memo[base + kids[0]]
        elif cls is Implies:
            m = (full(c) & ~memo[base + kids[0]]) | memo[base + kids[1]]
        elif cls is Iff:
            m = full(c) & ~(memo[base + kids[0]] ^ memo[base + kids[1]])
        elif cls is Top:
            m = full(c)
        elif cls in _PROGRAMS:
            continue
        else:  # a modality, its body read at context s
            m = modal(node, memo[s * width + kids[-1]], c)
        memo[base + i] = m
    return memo[root]


def _demand(nodes: NodeArray, ctx: int, memo: dict, sem) -> list[tuple[int, int, int]]:
    """(node id, context, body context) for each extension the root at ctx
    needs and memo lacks, children first: one loop from the root down."""
    width = len(nodes)
    need: list[Optional[dict[int, int]]] = [None] * width  # context -> body context
    need[-1] = {ctx: ctx}
    for i in range(width - 1, -1, -1):
        cs = need[i]
        if cs is None:
            continue
        cls, kids, node = nodes[i]
        if not kids:
            continue
        if cls in BOOLEAN:
            targets = cs  # the children are read at the node's own contexts
        else:
            if cls in sem.shifts:
                for c in cs:
                    cs[c] = sem.step(node, c)
            targets = cs.values()
            kids = kids[-1:]
        for k in kids:
            got = need[k]
            for c in targets:
                if c * width + k not in memo:
                    if got is None:
                        got = need[k] = {c: c}
                    else:
                        got[c] = c
    return [(i, c, s) for i, cs in enumerate(need) if cs for c, s in cs.items()]


def translate_pdl(f: Formula) -> Formula:
    """Embed the relational language: <prog> becomes dia O[prog], [prog]
    becomes box O[prog]."""
    if not in_language(f, Language.PDL):
        raise ValueError(f"not a relational-language formula: {format_formula(f)}")

    def visit(node: Node, kids: list) -> Node:
        if type(node) is Diamond:
            return Cl(Next(*kids))
        if type(node) is BoxPdl:
            return Int(Next(*kids))
        return node.rebuild(kids)

    return fold(f, visit)


class _Semantics:
    """One context, every atom as valued, and programs interpreted once each."""

    shifts: frozenset = frozenset()

    def __init__(self, model):
        self.model = model
        self.space = getattr(model, "space", None)
        self.all = (1 << model.n) - 1
        self._programs: dict[Program, tuple] = {}

    def full(self, c: int) -> int:
        return self.all

    def atom(self, node: Node, c: int) -> int:
        return self.model.val.get(node.name, 0)

    def program(self, prog: Program) -> tuple:
        got = self._programs.get(prog)
        if got is None:
            got = self._programs[prog] = self.interpret(prog)
        return got

    def interpret(self, prog: Program) -> tuple[Optional[int], ...]:
        return program_function(self.model, prog)


class _Relational(_Semantics):
    def interpret(self, prog: Program) -> tuple[int, ...]:
        """Successor masks per point; sequencing composes relations."""
        table = None
        for part in seq_steps(prog):
            if type(part) is Test:
                raise ValueError("test programs have no relational interpretation")
            try:
                rel = self.model.rel[part.name]
            except KeyError:
                raise ValueError(f"unknown program {part.name!r}") from None
            if table is None:
                table = rel
            else:  # the successors of a point's successors
                table = tuple(reduce(or_, [rel[y] for y in iter_points(m)], 0) for m in table)
        return table

    def modal(self, node: Node, body: int, c: int) -> int:
        if type(node) is not Diamond and type(node) is not BoxPdl:
            raise ValueError(f"no relational semantics for {format_formula(node)}")
        table = self.program(node.prog)
        m = 0
        for x in range(self.model.n):
            # Diamond: some successor in the body; BoxPdl: all of them
            if table[x] & body if type(node) is Diamond else not table[x] & ~body:
                m |= 1 << x
        return m


def eval_pdl_relational(model: PDLModel, f: Formula) -> int:
    """Extension of f as a bitmask."""
    return evaluate(f, _Relational(model))


class _DynamicTopological(_Semantics):
    def modal(self, node: Node, body: int, c: int) -> int:
        cls = type(node)
        if cls is Know or cls is KHat:
            raise FragmentViolation(
                f"knowledge needs subset-space semantics: {format_formula(node)}"
            )
        if cls is Int:
            return self.space.interior(body)
        if cls is Cl:
            return self.space.closure(body)
        pre = preimage(self.program(node.prog), body)
        if cls is Next:
            return pre
        return self.space.closure(pre) if cls is Diamond else self.space.interior(pre)


def eval_dtl(model: DTModel, f: Formula) -> int:
    """Extension of f on a dynamic-topological model.

    Accepts the relational language (through the embedding) and the box/next
    language; knowledge and test programs are rejected.
    """
    return evaluate(f, _DynamicTopological(model))


class SubsetEvaluator(_Semantics):
    """Relativized extensions on one subset-space model, memoized.

    ``extension(f, u)`` returns the set of points of the open u at which f
    holds in scenario (., u).  Keeping one evaluator alive across many queries
    on the same model shares the memo.  A node's context is its scenario set.
    """

    shifts = frozenset({Next})

    def __init__(self, model: SubsetModel):
        super().__init__(model)
        self._memos: dict[Formula, dict[int, int]] = {}

    def extension(self, f: Formula, u: int) -> int:
        memo = self._memos.get(f)
        if memo is None:
            memo = self._memos[f] = {}
        return evaluate(f, self, u, memo)

    def full(self, u: int) -> int:
        return u

    def atom(self, node: Node, u: int) -> int:
        return self.model.val.get(node.name, 0) & u

    def step(self, node: Node, u: int) -> int:
        return image(self.program(node.prog), u)

    def modal(self, node: Node, body: int, u: int) -> int:
        cls = type(node)
        if cls is Diamond or cls is BoxPdl:
            raise ValueError(
                f"relational modalities are not defined on subset-space models: "
                f"{format_formula(node)}"
            )
        if cls is Know:
            # knowledge is truth throughout the scenario set
            return u if body == u else 0
        if cls is KHat:
            return u if body != 0 else 0
        if cls is Int:
            return self.space.interior(body)
        if cls is Cl:
            return u & ~self.space.interior(u & ~body)
        return preimage(self.program(node.prog), body) & u

    def truth(self, f: Formula, s: Scenario) -> bool:
        validate_scenario(self.model, s)
        return bool(self.extension(f, s.u) >> s.x & 1)


def eval_subset(model: SubsetModel, f: Formula, s: Scenario) -> bool:
    return SubsetEvaluator(model).truth(f, s)


def state_extension(model: SubsetModel, f: Formula) -> int:
    """Scenario-set-independent extension of a box/next-fragment formula.

    Inside the fragment the truth of f at (x, U) does not depend on U, so the
    extension relative to the whole carrier serves as an absolute one.
    """
    if not in_language(f, Language.BOX_NEXT):
        raise FragmentViolation(
            f"state extensions exist only in the box/next fragment: {format_formula(f)}"
        )
    return SubsetEvaluator(model).extension(f, model.space.full)
