"""Model checkers for the three semantics, over one evaluator core.

``evaluate`` reads the connectives from ``CONNECTIVES``, in one pass over
the formula's tree that switches context as it goes.  A semantics supplies
the rest: ``full(c)``, every point at context ``c``; ``atom(node, c)``;
``modal(node, body, c)``, a modality applied to its body's extension; and
``shifts``, the modalities whose body is read at another context,
``step(node, c)``.  Contexts are ints: the scenario set in subset spaces,
the stratum for network spaces, 0 where truth does not depend on one.

Relational: ``<prog>`` is existential preimage along the program relation.

Dynamic-topological: programs are total maps, ``O[prog]`` is preimage,
``box``/``dia`` are interior/closure, and the relational modalities are read
through the embedding ``<prog> f == dia O[prog] f``, so their extensions are
the closure (dually, interior) of the preimage of the body's extension.

Subset-space: truth sits at scenarios (x, U).  Knowledge quantifies over U,
interior is taken in the ambient space, and ``O[prog]`` moves the whole
scenario along a partial open map.  ``SubsetEvaluator`` reads one open at a
time, as the context; ``ScenarioJudge`` reads every open at once, with none.

Valuation-parallel: ``failures`` judges a model's space and programs under a
whole chunk of valuations in one evaluation.  Bit ``x * width + v`` of a mask
holds the truth at point x under valuation v of the chunk, so the connectives
stay bitwise and each modality works on per-point slices of ``width`` bits.
On subset-space models a slice holds W columns of V valuations, one per open
in ``opens_sorted`` order: bit ``(x * W + j) * V + v`` holds the truth at
(x, opens[j]).  K ORs the slices and copies the result to every point with
one multiplication, and ``O[prog]`` reads column j at the column of the
image of opens[j], which is open since the map is.  The chunk's valuations
are grouped by a test's guard G_v, and ``O[?phi]`` reads column j at the
column of opens[j] & G_v.  ``least_failure`` reads the least failing
valuation and point off the masks.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from operator import lshift, or_
from typing import Iterator, Optional, Sequence

from .formula import (
    BINARY,
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
    Not,
    Or,
    Program,
    Test,
    Top,
    fold,
    format_formula,
    format_program,
    in_language,
    seq_steps,
)
from .models import (
    DTModel,
    Model,
    PDLModel,
    Scenario,
    SubsetModel,
    compose,
    image,
    preimage,
    program_function,
    validate_scenario,
)
from .topology import iter_points, points_from_mask

# At most 2**CHUNK_BITS valuations are judged in one evaluation, which keeps
# a mask within n * 2**CHUNK_BITS bits however many atoms there are.
CHUNK_BITS = 12

# The Boolean connectives on masks, given ``full``, every point at the
# context; ``evaluate`` reads them, passing Not its one child twice, and so
# do the audit's masks.
CONNECTIVES = {
    Not: lambda full, a, b=0: full & ~a,
    And: lambda full, a, b: a & b,
    Or: lambda full, a, b: a | b,
    Implies: lambda full, a, b: (full & ~a) | b,
    Iff: lambda full, a, b: full & ~(a ^ b),
}


def evaluate(f: Formula, sem, ctx: int = 0) -> int:
    """Extension of f at context ctx, by one pass over its tree, children
    first, without recursion: each (node, context) pair is read once and
    memoized as ``memo[context][id(node)]``.  A modality in ``sem.shifts``
    reads its body at ``sem.step(node, c)``: the walk pushes c, the body,
    then that context, and popping a context switches to it.  A modality's
    program, test guards included, is left to ``sem.program``.  The memo
    lives for the call, while f keeps every node alive.
    """
    memo: dict[int, dict[int, int]] = {}
    shifts, atom, modal = sem.shifts, sem.atom, sem.modal
    c, full = ctx, sem.full(ctx)
    done = memo.setdefault(ctx, {})
    last = done  # the memo of the context the last switch left
    stack: list = [f]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        if node is None:  # the children of the node below it are done
            node = pop()
            cls = type(node)
            op = CONNECTIVES.get(cls)
            if op is not None:
                kids = node.children
                m = op(full, done[id(kids[0])], done[id(kids[-1])])
            else:  # a shifted body was read in the context just left
                m = modal(node, (last if cls in shifts else done)[id(node.children[-1])], c)
            done[id(node)] = m
            continue
        cls = type(node)
        if cls is int:  # switch to context node
            last, c = done, node
            done, full = memo.setdefault(c, {}), sem.full(c)
        elif id(node) not in done:
            if cls is Atom:
                done[id(node)] = atom(node, c)
            elif cls in BINARY:
                left, right = node.children
                push(node)
                push(None)
                if id(right) not in done:
                    push(right)
                if id(left) not in done:
                    push(left)
            elif cls is Top:
                done[id(node)] = full
            elif isinstance(node, Formula):  # Not, or a modality read at its body
                body = node.children[-1]
                push(node)
                push(None)
                if cls in shifts:
                    push(c)
                    push(body)
                    push(sem.step(node, c))
                elif id(body) not in done:
                    push(body)
            else:
                raise TypeError(f"not a formula: {node!r}")
    return done[id(f)]


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


def _program_key(prog: Program):
    """A key equal programs share, compared without walking their nodes: an
    atomic program's name, else its steps, each a name or a test node.  An
    interpretation composes the steps, so programs whose sequences nest
    differently may share a key as they share an interpretation."""
    if type(prog) is Atomic:
        return prog.name
    key = getattr(prog, "_key", None)
    if key is None:  # cached on the node
        key = prog._key = tuple([s.name if type(s) is Atomic else s for s in seq_steps(prog)])
    return key


class _Semantics:
    """One context, every atom as valued, and programs interpreted once each."""

    shifts: frozenset = frozenset()

    def __init__(self, model):
        self.model = model
        self.space = getattr(model, "space", None)
        self.all = (1 << model.n) - 1
        self._programs: dict = {}  # _program_key -> interpretation

    def full(self, c: int) -> int:
        return self.all

    def atom(self, node: Node, c: int) -> int:
        return self.model.val.get(node.name, 0)

    def program(self, prog: Program) -> tuple:
        key = _program_key(prog)
        got = self._programs.get(key)
        if got is None:
            got = self._programs[key] = self.interpret(prog)
        return got

    def interpret(self, prog: Program) -> tuple[Optional[int], ...]:
        return program_function(self.model, prog)

    # point-set operations, replaced by the valuation-parallel semantics

    def interior(self, m: int) -> int:
        return self.space.interior(m)

    def closure(self, m: int) -> int:
        return self.space.closure(m)

    def preimage(self, fn: tuple[Optional[int], ...], m: int) -> int:
        return preimage(fn, m)


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
        # Diamond: some successor in the body; BoxPdl: all of them
        table = self.program(node.prog)
        return self.some(table, body) if type(node) is Diamond else self.every(table, body)

    def some(self, table: tuple[int, ...], m: int) -> int:
        """Points x whose table entry meets m."""
        r = 0
        for x, t in enumerate(table):
            if t & m:
                r |= 1 << x
        return r

    def every(self, table: tuple[int, ...], m: int) -> int:
        """Points x whose table entry lies inside m."""
        r = 0
        for x, t in enumerate(table):
            if not t & ~m:
                r |= 1 << x
        return r


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
            return self.interior(body)
        if cls is Cl:
            return self.closure(body)
        pre = self.preimage(self.program(node.prog), body)
        if cls is Next:
            return pre
        return self.closure(pre) if cls is Diamond else self.interior(pre)


def eval_dtl(model: DTModel, f: Formula) -> int:
    """Extension of f on a dynamic-topological model.

    Accepts the relational language (through the embedding) and the box/next
    language; knowledge and test programs are rejected.
    """
    return evaluate(f, _DynamicTopological(model))


class SubsetEvaluator(_Semantics):
    """Relativized extensions on one subset-space model.

    ``extension(f, u)`` returns the set of points of the open u at which f
    holds in scenario (., u).  Keeping one evaluator alive across many queries
    on the same model shares its program interpretations.  A node's context
    is its scenario set.
    """

    shifts = frozenset({Next})

    # not inherited: perfbench/tracing.py wraps it through the class __dict__
    def __init__(self, model: SubsetModel):
        super().__init__(model)

    def extension(self, f: Formula, u: int) -> int:
        return evaluate(f, self, u)

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
            return self.interior(body)
        full = self.full(u)
        if cls is Cl:
            return full & ~self.interior(full & ~body)
        return self.preimage(self.program(node.prog), body) & full

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


# --- every valuation at once ----------------------------------------------------


@cache
def _members(n: int) -> tuple[tuple[int, ...], ...]:
    """The points of each subset of n points, indexed by its mask."""
    return tuple(tuple(iter_points(m)) for m in range(1 << n))


def valuation_chunks(
    n: int, names: Sequence[str], columns: int = 1
) -> Iterator[tuple[int, int, dict[str, int]]]:
    """(first valuation, width, atom masks) for each chunk of the valuations
    of names on n points, in order.

    Valuations are numbered as ``itertools.product(range(2**n),
    repeat=len(names))`` lists them: number v gives atom j the mask
    ``v >> n * (len(names) - 1 - j) & (2**n - 1)``.  A chunk holds ``width``
    consecutive valuations, at most ``2**CHUNK_BITS // columns`` as a power of
    two (and at least 1), so a mask of that many columns per point stays
    within ``n * 2**CHUNK_BITS`` bits.  An atom's mask sets bit
    ``x * width + v`` when the atom holds at x under valuation start + v.
    """
    bits = n * len(names)
    width = 1 << max(0, min(bits, CHUNK_BITS - (columns - 1).bit_length()))
    for start in range(0, 1 << bits, width):
        yield start, width, _atom_masks(n, tuple(names), width, start)


def valuation(names: Sequence[str], n: int, v: int) -> dict[str, int]:
    """Valuation number v of names on n points, as ``valuation_chunks``
    numbers them."""
    last = len(names) - 1
    return {a: v >> n * (last - j) & (1 << n) - 1 for j, a in enumerate(names)}


@lru_cache(maxsize=64)
def _atom_masks(n: int, names: tuple[str, ...], width: int, start: int) -> dict[str, int]:
    ones = (1 << width) - 1
    out = {}
    for j, name in enumerate(names):
        m = 0
        for x in range(n):
            b = n * (len(names) - 1 - j) + x  # bit b of v: the atom holds at x
            run = 1 << b
            if run < width:  # runs of 2**b valuations alternate inside the chunk
                column = ones // ((1 << run) + 1) << run
            else:  # bit b is the same throughout the chunk
                column = ones if start >> b & 1 else 0
            m |= column << x * width
        out[name] = m
    return out


class _Parallel:
    """Mixin that runs a one-model semantics under a chunk of valuations.

    The model supplies the space and the programs and its valuation is
    ignored; ``atoms`` holds each atom's mask in the layout of
    ``valuation_chunks``.  Each operation on point sets works slice by slice.
    """

    def __init__(self, model, atoms: dict[str, int], width: int):
        # the base state only: the one-model memo tables go unused
        _Semantics.__init__(self, model)
        n = model.n
        self.atoms = atoms
        self.ones = (1 << width) - 1
        self.offsets = range(0, n * width, width)
        self.all = (1 << n * width) - 1
        self.members = _members(n)

    def atom(self, node: Node, c: int) -> int:
        return self.atoms.get(node.name, 0)

    def slices(self, m: int) -> list[int]:
        ones = self.ones
        return [m >> o & ones for o in self.offsets]

    def interior(self, m: int) -> int:
        return self.every(self.space.min_nbhds, m)

    def closure(self, m: int) -> int:
        return self.some(self.space.min_nbhds, m)

    def preimage(self, fn: tuple[Optional[int], ...], m: int) -> int:
        s = self.slices(m)
        r = 0
        for o, y in zip(self.offsets, fn):
            if y is not None:
                r |= s[y] << o
        return r

    def some(self, table: tuple[int, ...], m: int) -> int:
        s, members = self.slices(m), self.members
        r = 0
        for o, t in zip(self.offsets, table):
            acc = 0
            for y in members[t]:
                acc |= s[y]
            r |= acc << o
        return r

    def every(self, table: tuple[int, ...], m: int) -> int:
        s, members, ones = self.slices(m), self.members, self.ones
        r = 0
        for o, t in zip(self.offsets, table):
            acc = ones
            for y in members[t]:
                acc &= s[y]
            r |= acc << o
        return r


class _ParallelRelational(_Parallel, _Relational):
    pass


class _ParallelDynamicTopological(_Parallel, _DynamicTopological):
    pass


class ScenarioJudge(_Parallel, SubsetEvaluator):
    """Every scenario of a subset-space model at once, in the layout of the
    module docstring.  Without ``atoms`` it judges the model's own valuation
    (V = 1).  Build one per model, or per block and chunk, and judge every
    formula on it: each atom and program is read once."""

    shifts = frozenset()

    def __init__(self, model: SubsetModel, atoms: Optional[dict[str, int]] = None, width: int = 1):
        self.width, self.block = width, (1 << width) - 1
        self.opens = opens = model.space.opens_sorted()
        self.column = {u: j for j, u in enumerate(opens)}
        super().__init__(model, {}, len(opens) * width)
        copies = sum(1 << j * width for j in range(len(opens)))  # a block to every column
        self.spread = sum(1 << o for o in self.offsets)  # a slice to every point
        # per point, the columns of the opens that hold it
        inside = [sum(self.block << j * width for j, u in enumerate(opens) if u >> x & 1)
                  for x in range(model.n)]
        self.all = sum(map(lshift, inside, self.offsets))
        self.atoms = {  # an atom's slice at x, in every column of an open that holds x
            a: sum(((m >> x * width & self.block) * copies & inside[x]) << o
                   for x, o in enumerate(self.offsets))
            for a, m in (model.val if atoms is None else atoms).items()
        }

    def full(self, c: int) -> int:
        return self.all

    def interpret(self, prog: Program) -> list[tuple[int, tuple[Optional[int], ...], list]]:
        """Per group of the chunk's valuations under which prog is one map: their
        bits, the map, and per open j the shifts of its image's column and of j."""
        groups = {self.block: tuple(range(self.model.n))}  # valuation bits -> the map so far
        for part in seq_steps(prog):
            steps = self.guards(part.body) if type(part) is Test else {
                self.block: program_function(self.model, part)}
            groups = {b & c: compose(f, g) for b, f in groups.items() for c, g in steps.items() if b & c}
        out = []
        for bits, fn in groups.items():
            out.append((bits, fn, moves := []))
            for j, u in enumerate(self.opens):
                k = self.column.get(image(fn, u))
                if k is None:
                    raise ValueError(f"program {format_program(prog)} maps the open "
                                     f"{points_from_mask(u)} onto a set that is not open")
                moves.append((k * self.width, j * self.width))
        return out

    def guards(self, body: Formula) -> dict[int, tuple[Optional[int], ...]]:
        """The identity on ?(body)'s guard per group of valuations sharing it: the
        interior of body, a box/next formula, read at the whole carrier's column."""
        full, groups = self.column[self.space.full] * self.width, {self.block: ()}
        for x, g in enumerate([s >> full for s in self.slices(self.interior(evaluate(body, self)))]):
            groups = {b & h: fn + (y,) for b, fn in groups.items()
                      for h, y in ((g, x), (~g, None)) if b & h}
        return groups

    def modal(self, node: Node, body: int, c: int) -> int:
        cls = type(node)
        if cls is Know or cls is KHat:  # every (some) point of the open, at each of its points
            some = reduce(or_, self.slices(self.all & ~body if cls is Know else body), 0)
            spread = some * self.spread & self.all
            return self.all & ~spread if cls is Know else spread
        if cls is not Next:
            return super().modal(node, body, c)
        s = self.slices(body)  # column j read at its image's column k, per group
        return self.all & sum(sum([(s[y] >> k & bits) << j for k, j in moves]) << o
                              for bits, fn, moves in self.program(node.prog)
                              for o, y in zip(self.offsets, fn) if y is not None)

    def witness(self, f: Formula) -> Optional[Scenario]:
        """The first open, in ``opens_sorted`` order, where f fails, with its
        least failing point; None when f holds at every scenario."""
        slices = self.slices(self.all & ~evaluate(f, self))
        failing = reduce(or_, slices, 0)  # bit j: f fails somewhere in opens[j]
        if not failing:
            return None
        j = (failing & -failing).bit_length() - 1
        return Scenario(next(x for x, t in enumerate(slices) if t >> j & 1), self.opens[j])


def failures(model: Model, f: Formula, atoms: dict[str, int], width: int) -> int:
    """Where f fails on the model's space and programs under a chunk of
    valuations (see ``valuation_chunks``): bit ``x * width + v`` is set iff
    f fails at point x under valuation v, on subset-space models at some
    scenario (x, U).  The model's own valuation is ignored."""
    if isinstance(model, SubsetModel):  # each point's columns ORed
        sem = ScenarioJudge(model, atoms, width)
        bad, cols = sem.slices(sem.all & ~evaluate(f, sem)), range(0, len(sem.opens) * width, width)
        return sum((reduce(or_, [t >> c for c in cols]) & sem.block) << x * width
                   for x, t in enumerate(bad))
    cls = _ParallelRelational if isinstance(model, PDLModel) else _ParallelDynamicTopological
    sem = cls(model, atoms, width)
    return sem.all & ~evaluate(f, sem)


def least_failure(model: Model, f: Formula, names: Sequence[str]) -> Optional[tuple[int, int]]:
    """The least valuation of names (numbered as ``valuation_chunks`` does)
    under which f fails on the model's space and programs, with the least
    point where it fails; None when f holds under all of them."""
    n = model.n
    columns = len(model.space.opens) if isinstance(model, SubsetModel) else 1
    for start, width, atoms in valuation_chunks(n, names, columns):
        bad = failures(model, f, atoms, width)
        if bad:  # bit v of the points' slices ORed: f fails under valuation v
            ones = (1 << width) - 1
            low = reduce(or_, (bad >> o & ones for o in range(0, n * width, width)))
            v = (low & -low).bit_length() - 1
            return start + v, next(x for x in range(n) if bad >> x * width + v & 1)
    return None
