"""Seeded model generators, soundness audits and countermodel search.

Generation is deterministic per (seed, index): the same config yields the
same stream of models, so audit reports are reproducible bit for bit.
Constrained classes (open or continuous maps) rejection-sample up to a cap
and then fall back to constructive families rather than spinning forever.
"""

from __future__ import annotations

import _random
import bisect
import itertools
import random
import time
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial, reduce
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import checker
from .formula import (
    BINARY,
    MODAL,
    And,
    Atom,
    Atomic,
    BoxPdl,
    Cl,
    Diamond,
    Formula,
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
    Seq,
    TOP,
    Test,
    atoms as formula_atoms,
    format_formula,
    modal_depth,
    postorder,
    program_names,
)
from .frameprops import is_continuous, is_open_map
from .models import (
    DTModel,
    Model,
    PDLModel,
    Scenario,
    SubsetModel,
    model_to_json,
)
from .proofkit import get_system, instantiate_scheme
from .topology import (
    TopoSpace,
    all_topologies,  # unused: perfbench/tracing.py wraps it under this module's name
    first_of_orbits,
    inverse,
    iter_points,
    relabellings,
    representative_topologies,
)

MODEL_CLASSES = ("pdl_serial", "dtl", "dtl_open", "dtl_continuous", "subset")

_DEFAULT_CLASS = {"SPDL0": "dtl", "SPDL0_SEQ": "dtl_open", "DTEL": "subset"}

_PROGRAM_NAMES = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_points: int = 4
    num_programs: int = 2
    model_class: Optional[str] = None  # None lets audit pick by system
    atoms: tuple[str, ...] = ("p", "q", "r")
    max_attempts: int = 10_000


_MASK64 = (1 << 64) - 1


def _mix(x: int, salt: int) -> int:
    """splitmix64's step, salted, and its finalizer."""
    x = (x + 0x9E3779B97F4A7C15 + salt) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ x >> 31


def _stream_key(seed: int, *salt: int) -> int:
    """The key of (seed, *salt): ``_mix`` applied to the seed alone, then
    once more per salt added, so that neighbouring keys such as (s + 1, i)
    and (s, i + 1) give unrelated streams."""
    return reduce(_mix, (0, *salt), seed & _MASK64)


def _derived_rng(seed: int, *salt: int) -> random.Random:
    """The stream of (seed, *salt): a generator seeded with its key."""
    return random.Random(_stream_key(seed, *salt))


# --- random pieces -----------------------------------------------------------


def _gen_space(rng: random.Random, n: int) -> TopoSpace:
    """Random preorder: a DAG on a shuffled order, transitively closed."""
    up = [1 << x for x in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                up[order[i]] |= 1 << order[j]
    # edges run forward along order, so closing from the back takes one pass
    for x in reversed(order):
        for y in iter_points(up[x]):
            up[x] |= up[y]
    return TopoSpace(n, tuple(up))


def _gen_valuation(rng: random.Random, n: int, names: Sequence[str]) -> dict[str, int]:
    return {a: rng.getrandbits(n) for a in names}


def _gen_total_map(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(n) for _ in range(n))


def _gen_serial_successors(rng: random.Random, n: int) -> tuple[int, ...]:
    # successor sets biased small, to keep derived network strata desk-sized
    weights = [8.0, 4.0, 1.5, 0.5][:n] or [1.0]
    sizes = list(range(1, len(weights) + 1))
    out = []
    for _ in range(n):
        k = rng.choices(sizes, weights=weights)[0]
        m = 0
        for y in rng.sample(range(n), k):
            m |= 1 << y
        out.append(m)
    return tuple(out)


def _map_condition(model_class: str) -> Optional[Callable]:
    """The frame property every program map of the class has, or None when
    any map will do.  Looked up when called, so a wrapper put on this
    module's deciders sees every call."""
    if model_class in ("dtl_open", "subset"):
        return is_open_map
    return is_continuous if model_class == "dtl_continuous" else None


def _gen_constrained_map(
    rng: random.Random, space: TopoSpace, condition: Callable, cap: int
) -> tuple[int, ...]:
    for _ in range(cap):
        fn = _gen_total_map(rng, space.n)
        if condition(space, fn).holds:
            return fn
    # constructive fallback: the identity and the constant maps that meet the
    # condition; the identity always does (a constant map is always
    # continuous, and open when its point is an open singleton)
    candidates = [tuple(range(space.n))] + [(y,) * space.n for y in range(space.n)]
    return rng.choice([fn for fn in candidates if condition(space, fn).holds])


def gen_model(cfg: GenConfig, index: int = 0) -> Model:
    """Deterministic model stream: same config and index, same model."""
    model_class = cfg.model_class or "dtl"
    if model_class not in MODEL_CLASSES:
        raise ValueError(f"unknown model class {model_class!r}")
    condition = _map_condition(model_class)
    rng = _derived_rng(cfg.seed, index)
    n = rng.randint(1, cfg.max_points)
    alphabet = _PROGRAM_NAMES[: cfg.num_programs]

    if model_class == "pdl_serial":
        rel = {name: _gen_serial_successors(rng, n) for name in alphabet}
        val = _gen_valuation(rng, n, cfg.atoms)
        return PDLModel(n=n, alphabet=alphabet, rel=rel, val=val, serial_flag=True)

    space = _gen_space(rng, n)
    # a subset map is an open total map restricted to an open domain, which
    # stays open
    partial = model_class == "subset"
    cls = SubsetModel if partial else DTModel
    opens = space.opens_sorted() if partial else None
    fn = {}
    for name in alphabet:
        if condition is None:
            total = _gen_total_map(rng, n)
        else:
            total = _gen_constrained_map(rng, space, condition, cfg.max_attempts)
        if partial:
            dom = rng.choice(opens)
            total = tuple(total[x] if dom >> x & 1 else None for x in range(n))
        fn[name] = total
    return cls(space, alphabet, fn, _gen_valuation(rng, n, cfg.atoms))


# --- random formulas -----------------------------------------------------------


# kinds and weights in the order gen_formula offers them; Atom stands for
# "an atom, or top"
_BASE_KINDS = ((Atom, 2.0), (Not, 1.5), (And, 1.5), (Or, 1.2), (Implies, 1.2), (Iff, 0.6))


def _kind_table(lang: Language, modal: bool) -> tuple[tuple[type, ...], list[float], float, int]:
    """Kinds with their cumulative weights, total and last index, as
    ``random.choices`` would build them from the weights."""
    choices = list(_BASE_KINDS)
    if modal:
        if lang is Language.PDL:
            choices += [(Diamond, 2.0), (BoxPdl, 2.0)]
        else:
            choices += [(Next, 2.2)]
    if lang is not Language.PDL:
        choices += [(Int, 1.2), (Cl, 1.2)]
        if lang is Language.K_BOX_NEXT:
            choices += [(Know, 1.2), (KHat, 0.8)]
    cum = list(itertools.accumulate(w for _, w in choices))
    return tuple(c for c, _ in choices), cum, cum[-1] + 0.0, len(cum) - 1


# per language: the table without, then with, modalities
_KIND_TABLES = {lang: (_kind_table(lang, False), _kind_table(lang, True)) for lang in Language}


def gen_formula(
    rng: random.Random,
    atom_names: Sequence[str],
    programs: Sequence[str],
    modal_budget: int = 3,
    size_budget: int = 6,
    lang: Language = Language.PDL,
    allow_seq: bool = True,
    allow_tests: bool = False,
) -> Formula:
    """Grammar-stratified sampler; modal depth never exceeds modal_budget.
    Draws from the cached grammar of its names, language and options."""
    grammar = _grammar(tuple(atom_names), tuple(programs), lang, allow_seq, allow_tests)
    return grammar.formula(rng, grammar.nodes, modal_budget, size_budget)


@lru_cache(maxsize=64)
def _grammar(atom_names, programs, lang, allow_seq, allow_tests) -> _Grammar:
    return _Grammar(atom_names, programs, lang, allow_seq, allow_tests)


# what the grammar makes of a draw: ``top`` and ``atoms`` (in the grammar's
# order) for leaves, ``ops[kind](*children)`` for nodes, a modality's program first
_Algebra = namedtuple("_Algebra", "top atoms ops")
_KINDS = (Not, And, Or, Implies, Iff, Diamond, BoxPdl, Next, Int, Cl, Know, KHat)


class _Grammar:
    """gen_formula's recursion: kinds, atoms and programs are drawn from rng in
    a fixed order, so one stream gives one formula whatever algebra makes it:
    ``nodes`` builds it from shared leaves, one per name, and the audit's
    ``_masks`` judges it.  Programs and test bodies are always nodes."""

    def __init__(self, atom_names, programs, lang, allow_seq, allow_tests):
        if not atom_names:  # a leaf would be drawn from nothing
            raise ValueError("formulas are drawn over at least one atom")
        self.tables = _KIND_TABLES[lang] if programs else (_KIND_TABLES[lang][0],) * 2
        self.allow_seq = allow_seq
        self.allow_tests = allow_tests and lang is not Language.PDL
        # test bodies are drawn from the box/next grammar, with its leaves
        self.tests = self
        if self.allow_tests and lang is not Language.BOX_NEXT:
            self.tests = _grammar(atom_names, programs, Language.BOX_NEXT, allow_seq, True)
            self.atoms, self.programs = self.tests.atoms, self.tests.programs
        else:
            leaves = {a: Atom(a) for a in atom_names}
            self.atoms = tuple(leaves[a] for a in atom_names)
            steps = {p: Atomic(p) for p in programs}
            self.programs = tuple(steps[p] for p in programs)
        self.nodes = _Algebra(TOP, self.atoms, {kind: kind for kind in _KINDS})

    def formula(self, rng: random.Random, alg: _Algebra, modal_budget: int, size_budget: int):
        if size_budget > 0 and (rng.random() >= 0.18 or size_budget >= 4):
            # the draw random.choices(kinds, weights) makes, from a precomputed table
            kinds, cum, total, last = self.tables[modal_budget >= 1]
            kind = kinds[bisect.bisect(cum, rng.random() * total, 0, last)]
            if kind is not Atom:  # Atom stands for a leaf
                make, size = alg.ops[kind], size_budget - 1
                if kind in BINARY:
                    left = self.formula(rng, alg, modal_budget, size)
                    return make(left, self.formula(rng, alg, modal_budget, size))
                if kind not in MODAL:
                    return make(self.formula(rng, alg, modal_budget, size))
                prog, cost = self.program(rng, modal_budget, size_budget)
                return make(prog, self.formula(rng, alg, modal_budget - cost, size))
        if rng.random() < 0.08:
            return alg.top
        atoms = alg.atoms  # drawn as random.choice draws, without the call
        return atoms[rng._randbelow(len(atoms))]

    def program(
        self, rng: random.Random, modal_budget: int, size_budget: int
    ) -> tuple[Program, int]:
        programs, below = self.programs, rng._randbelow  # random.choice's draw
        if self.allow_seq and modal_budget >= 2 and programs and rng.random() < 0.25:
            return Seq(programs[below(len(programs))], programs[below(len(programs))]), 2
        if self.allow_tests and modal_budget >= 1 and rng.random() < 0.15:
            body = self.tests.formula(rng, self.tests.nodes, modal_budget - 1, size_budget // 2)
            return Test(body), max(modal_depth(body), 1)
        return programs[below(len(programs))], 1


# --- audits ---------------------------------------------------------------------

_CPL_TEMPLATES = (
    Implies(Atom("p"), Atom("p")),
    Implies(Atom("p"), Implies(Atom("q"), Atom("p"))),
    Implies(And(Atom("p"), Atom("q")), Atom("p")),
    Or(Atom("p"), Not(Atom("p"))),
    Iff(Not(Not(Atom("p"))), Atom("p")),
    Implies(Implies(Atom("p"), Atom("q")), Implies(Implies(Atom("q"), Atom("r")), Implies(Atom("p"), Atom("r")))),
)


@dataclass(frozen=True)
class AuditViolation:
    trial: int
    scheme: str
    formula: str
    model: dict
    point: int | None = None
    scenario: dict | None = None

    def to_json(self) -> dict:
        out: dict = {
            "trial": self.trial,
            "scheme": self.scheme,
            "formula": self.formula,
            "model": self.model,
        }
        if self.point is not None:
            out["point"] = self.point
        if self.scenario is not None:
            out["scenario"] = self.scenario
        return out


@dataclass
class AuditReport:
    system: str
    model_class: str
    trials: int
    instances: int
    checked: int
    violations: list[AuditViolation]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self, include_elapsed: bool = False) -> dict:
        # elapsed is wall clock; leaving it out keeps equal-seed runs byte-identical
        out = {
            "system": self.system,
            "model_class": self.model_class,
            "trials": self.trials,
            "instances": self.instances,
            "checked": self.checked,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


def _judge(model: Model) -> checker._Semantics:
    """One semantics for every instance judged on the model, so that each
    atom and program is read once per model, not once per instance."""
    if isinstance(model, SubsetModel):
        return checker.ScenarioJudge(model)
    relational = isinstance(model, PDLModel)
    return (checker._Relational if relational else checker._DynamicTopological)(model)


def _masks(judge: checker._Semantics, atoms: Sequence[Atom]) -> _Algebra:
    """The algebra of the judge's masks: ``checker.CONNECTIVES``, and the
    judge's ``modal`` on a stand-in node of each modality and program.  Each
    modality remembers its values for the model, by body mask and, for one
    with a program, by the program's ``checker._program_key``, under which
    the judge interprets it; a refusal is raised again at each call."""
    full, modal = judge.full(0), judge.modal
    ops = {kind: partial(op, full) for kind, op in checker.CONNECTIVES.items()}
    for kind in (Int, Cl, Know, KHat):
        ops[kind] = _remembered(modal, kind(TOP))
    for kind in MODAL:
        ops[kind] = _remembered_with_program(modal, kind)
    return _Algebra(full, tuple(judge.atom(a, 0) for a in atoms), ops)


def _remembered(modal: Callable, node: Node) -> Callable[[int], int]:
    memo: dict[int, int] = {}

    def op(body: int) -> int:
        got = memo.get(body)
        if got is None:
            got = memo[body] = modal(node, body, 0)
        return got
    return op


def _remembered_with_program(modal: Callable, kind: type) -> Callable[[Program, int], int]:
    memo: dict[tuple, int] = {}
    program_key = checker._program_key

    def op(prog: Program, body: int) -> int:
        key = (program_key(prog), body)
        got = memo.get(key)
        if got is None:  # a stand-in: modal reads only its class and program
            got = memo[key] = modal(kind(prog, TOP), body, 0)
        return got
    return op


@cache
def _template(template: Formula) -> tuple[list[tuple[type, tuple[int, ...], Node]], list[str]]:
    """A scheme template's plan, its nodes in post-order as (class, positions
    of the children in the plan, node), and the atoms it reads, in name
    order: made once per template, as the templates are constants."""
    nodes = postorder(template)
    at = {id(node): i for i, node in enumerate(nodes)}
    plan = [(type(node), tuple([at[id(k)] for k in node.children]), node) for node in nodes]
    return plan, sorted(formula_atoms(template))


def _apply(template: Formula, formulas: dict, programs: dict[str, Program], alg: _Algebra):
    """The template's value in alg, its atoms read as formulas' values and its
    atomic programs as programs' nodes; over nodes, ``instantiate_scheme``."""
    vals: list = []
    for cls, kids, node in _template(template)[0]:
        if kids:
            val = (Seq if cls is Seq else alg.ops[cls])(*[vals[i] for i in kids])
        else:  # a formula or program variable, or top
            val = (formulas[node.name] if cls is Atom else
                   programs[node.name] if cls is Atomic else alg.top)
        vals.append(val)
    return val


def _instance(rng: random.Random, grammar: _Grammar, template: Optional[Formula],
              alg: _Algebra) -> tuple[Formula, dict, dict]:
    """(template, formula variables, program variables) of an instance, in
    draw order: a CPL (None) template, the program variables, then a formula
    in alg for each atom the template reads, in name order.  Each pick is
    ``random.choice``'s draw."""
    below, steps = rng._randbelow, grammar.programs
    template = template or _CPL_TEMPLATES[below(len(_CPL_TEMPLATES))]
    programs = {v: steps[below(len(steps))] for v in ("pi", "pi1", "pi2")}
    formulas = {v: grammar.formula(rng, alg, 3, 4) for v in _template(template)[1]}
    return template, formulas, programs


def _global_failure(
    model: Model, inst: Formula, judge: Optional[checker._Semantics] = None
) -> Union[None, int, Scenario]:
    """None when the instance holds everywhere; otherwise a witness.
    ``judge`` may be the model's ``_judge``, built once for many instances."""
    if isinstance(model, SubsetModel):
        return (judge or checker.ScenarioJudge(model)).witness(inst)
    if judge is not None:
        ext = checker.evaluate(inst, judge)
    elif isinstance(model, PDLModel):
        ext = checker.eval_pdl_relational(model, inst)
    else:
        ext = checker.eval_dtl(model, inst)
    missing = (1 << model.n) - 1 & ~ext
    return next(iter_points(missing)) if missing else None


def audit(
    system_name: str,
    cfg: GenConfig,
    trials: int,
    instances: int = 3,
    schemes: Optional[Iterable[str]] = None,
) -> AuditReport:
    """Instantiate each scheme with random formulas on generated models and
    collect global-truth failures.  Each model's instances are judged on one
    ``_judge`` of it.

    Instance k of a trial, the i-th of scheme j with k = j * instances + i,
    draws from its own stream, that of ``_derived_rng(seed, trial, k)``: one
    generator is reseeded with the stream's key, (seed, trial) being mixed
    once per trial.  It is judged as it is drawn, as masks.  One that fails,
    or that the judge refuses, is drawn again from its stream, reseeded, as
    a tree for ``_global_failure`` to find its witness or error."""
    if not 0 <= cfg.seed <= _MASK64:
        raise ValueError(f"audit seeds run from 0 to 2**64 - 1, not {cfg.seed}")
    system = get_system(system_name)
    model_class = cfg.model_class or _DEFAULT_CLASS[system.name]
    if not 1 <= cfg.num_programs <= len(_PROGRAM_NAMES):
        raise ValueError(f"audits use 1 to {len(_PROGRAM_NAMES)} programs, not {cfg.num_programs}")
    run_cfg = replace(cfg, model_class=model_class)
    lang = system.language
    wanted = set(schemes) if schemes is not None else None
    chosen = [(name, t) for name, t in (("CPL", None), *system.schemes)
              if wanted is None or name in wanted]

    start = time.perf_counter()
    violations: list[AuditViolation] = []
    rng, reseed = random.Random(0), _random.Random.seed
    for trial in range(trials):
        model = gen_model(run_cfg, trial)
        judge = _judge(model)
        allow_seq = isinstance(model, (PDLModel, DTModel))
        allow_tests = model_class == "subset"
        # the grammar gen_formula draws from; _instance draws its program leaves
        grammar = _grammar(tuple(cfg.atoms), tuple(model.alphabet), lang, allow_seq, allow_tests)
        masks, full = _masks(judge, grammar.atoms), judge.full(0)
        prefix = _stream_key(cfg.seed, trial)
        for j, (name, template) in enumerate(chosen):
            for k in range(j * instances, (j + 1) * instances):
                key = _mix(prefix, k)
                reseed(rng, key)
                try:
                    if not full & ~_apply(*_instance(rng, grammar, template, masks), masks):
                        continue
                except ValueError:
                    pass
                reseed(rng, key)
                inst = instantiate_scheme(*_instance(rng, grammar, template, grammar.nodes))
                witness = _global_failure(model, inst, judge)
                if witness is not None:
                    scenario = witness.to_json() if isinstance(witness, Scenario) else None
                    violations.append(AuditViolation(
                        trial, name, format_formula(inst), model_to_json(model),
                        witness if isinstance(witness, int) else None, scenario))
    return AuditReport(
        system=system.name,
        model_class=model_class,
        trials=trials,
        instances=instances,
        checked=trials * len(chosen) * max(instances, 0),
        violations=violations,
        elapsed=time.perf_counter() - start,
    )


# --- exhaustive countermodel search ----------------------------------------------


@cache
def _all_maps(n: int, partial: bool) -> tuple[tuple[Optional[int], ...], ...]:
    """Every map on n points in ``itertools.product`` order; a partial map
    has None where it has no image, and None comes first.  Built once per
    size: the cached lists below hold references into it."""
    return tuple(itertools.product([None, *range(n)] if partial else range(n), repeat=n))


@cache
def _class_maps(
    model_class: str, n: int, space: Optional[TopoSpace]
) -> tuple[Sequence, Sequence, Sequence]:
    """(maps, firsts, moves) for the programs of a block on n points: the
    maps a program may have, in product order; those that no move sends to
    an earlier one; and the moves of the block's group on them.  On
    ``pdl_serial`` (no space) the maps are the serial successor tables and
    the group is every relabelling.  Otherwise the maps are the space's maps
    of the class, references into ``_all_maps`` filtered once per space and
    class, and the group is the space's homeomorphisms: the permutations p
    with ``table[p[x]] == p(table[x])``, which keep a map open, continuous
    or partial open, so they permute the maps."""
    if space is None:
        maps: Sequence = tuple(itertools.product(range(1, 1 << n), repeat=n))
        moves = relabellings(n)
    else:
        maps = _all_maps(n, model_class == "subset")
        condition = _map_condition(model_class)
        if condition is not None:
            maps = tuple(fn for fn in maps if condition(space, fn).holds)
        table = space.min_nbhds
        moves = tuple(
            ({None: None, **dict(enumerate(p))}, inverse(p))
            for p in itertools.permutations(range(n))
            if all(table[p[x]] == sum(1 << p[y] for y in iter_points(m)) for x, m in enumerate(table))
        )
    if len(moves) == 1:
        return maps, maps, moves
    return maps, tuple(first_of_orbits(maps, moves)), moves


def _first_tuples(maps: Sequence, firsts: Sequence, moves: Sequence, k: int) -> Iterator[tuple]:
    """Every k-tuple of maps, in product order, that no move sends to an
    earlier tuple; firsts are the single maps no move sends to an earlier
    one.  Those are the tuples whose first map is in firsts and whose rest
    is such a tuple under the first map's stabilizer: a move that does not
    fix the first map sends it, and so the tuple, later."""
    if k == 1 or len(moves) == 1:
        yield from itertools.product(firsts, *[maps] * (k - 1))
        return
    for first in firsts:
        fixing = [(act, inv) for act, inv in moves if tuple([act[first[x]] for x in inv]) == first]
        rest_firsts = tuple(first_of_orbits(maps, fixing)) if len(fixing) > 1 else maps
        for rest in _first_tuples(maps, rest_firsts, fixing, k - 1):
            yield (first, *rest)


def _class_models(model_class: str, n: int, progs: tuple[str, ...]) -> Iterator[Model]:
    """The (space, program maps) blocks the search judges on n points, as
    models of the class over progs with an empty valuation, in a fixed
    order: one topology per homeomorphism class, each the first of its
    class in the labelled order, then the tuples of program maps that come
    first in their orbit under the space's homeomorphism group, in product
    order.  ``pdl_serial`` is one more such class, with no space, the serial
    successor tables as its maps and every relabelling as its group.  A
    group member p carries a tuple to its conjugate ``g[p[x]] = p[f[x]]``
    (on a successor table, entry x's points mapped by p and moved to p[x]),
    map by map, and the model to an isomorphic one; the first map is
    reduced under the whole group and the rest under its stabilizer.  With
    no programs a block is just the space, and no map is enumerated.  Every
    labelled block is a relabelling of one of these, with the points of its
    valuations relabelled alike."""
    serial = model_class == "pdl_serial"
    cls = SubsetModel if model_class == "subset" else DTModel
    for space in (None,) if serial else representative_topologies(n):
        tuples = _first_tuples(*_class_maps(model_class, n, space), len(progs)) if progs else [()]
        for chosen in tuples:
            maps = dict(zip(progs, chosen))
            if serial:
                yield PDLModel(n=n, alphabet=progs, rel=maps, val={}, serial_flag=True)
            else:
                yield cls(space, progs, maps, {})


def search_countermodel(
    f: Formula, bound: int = 4, model_class: str = "dtl"
) -> Optional[tuple[Model, Union[int, Scenario]]]:
    """First refuting model in a fixed enumeration order, or None if the
    bounded space is exhausted: every model of the class on 1 to ``bound``
    points over the formula's own atoms and programs, judged as audits judge.

    The search makes one pass over the blocks of ``_class_models``, size by
    size, each under its valuations in order.  Relabelling a model's points
    changes no truth value, and every labelled block before the first
    failing one here relabels an earlier one, which passed, so this is the
    labelled order's first countermodel.  The same holds within a space: a
    homeomorphism conjugates a tuple of maps, with the valuation relabelled
    alike, and keeps its verdict, so the first failing tuple in product
    order is the first of its orbit, one that ``_class_models`` keeps; on
    ``pdl_serial`` the same argument runs over tuples of relations under
    every relabelling.  The kept maps of a space, or the kept relations on
    n points, are found once per process, on the search that first reaches
    them.  ``checker.least_failure`` judges a block's valuations a chunk at
    a time.  ``_global_failure`` picks the witness."""
    if model_class not in MODEL_CLASSES:
        raise ValueError(f"unknown model class {model_class!r}")
    names = sorted(formula_atoms(f))
    progs = tuple(sorted(program_names(f)))
    for n in range(1, bound + 1):
        for block in _class_models(model_class, n, progs):
            found = checker.least_failure(block, f, names)
            if found is not None:
                model = replace(block, val=checker.valuation(names, n, found[0]))
                return model, _global_failure(model, f)
    return None
