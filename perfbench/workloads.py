"""The four workloads: seeded topodyn CLI calls and the known answer of each.

``build(name, seed, workdir)`` returns one round of ops.  An op is an argv
for ``topodyn.cli.main`` plus a check that turns (exit code, stdout) into
None when the answer is right, or a one-line reason when it is not.  Inputs
come only from the seed; model and derivation files are written to
``workdir`` before anything is timed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import reference as ref
from reference import members

Check = Callable[[int, str], Optional[str]]


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check


def _expect(code: int, want_code: int, got: dict, want: dict) -> Optional[str]:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key} = {got.get(key)!r}, expected {value!r}"
    return None


def _json_check(fn: Callable[[int, dict], Optional[str]]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        try:
            doc = json.loads(out)
        except ValueError:
            return f"exit {code} with no JSON on stdout"
        return fn(code, doc)

    return check


# --- random formulas (benchmark-side ASTs, see reference.py) -----------------------

DTL = ("not", "and", "or", "imp", "iff", "int", "cl", "next", "dia", "boxp")
SUBSET = ("not", "and", "or", "imp", "iff", "K", "Khat", "int", "cl", "next")
BOX_NEXT = ("not", "and", "or", "imp", "int", "cl", "next")
MODAL = ("dia", "boxp", "next")


def gen_formula(rng, ops, atoms, progs, size, depth, seq=False):
    """Random formula with at most `size` connectives and modal depth `depth`."""
    choices = [op for op in ops if depth > 0 or op not in MODAL]
    if size <= 0 or rng.random() < 0.2:
        return ("top",) if rng.random() < 0.05 else ("atom", rng.choice(atoms))
    op = rng.choice(choices)
    if op in ref.BINARY:
        left = rng.randint(0, size - 1)
        return (
            op,
            gen_formula(rng, ops, atoms, progs, left, depth, seq),
            gen_formula(rng, ops, atoms, progs, size - 1 - left, depth, seq),
        )
    if op in MODAL:
        prog = rng.choice(progs)
        if seq and depth >= 2 and rng.random() < 0.3:
            prog = ("seq", prog, rng.choice(progs))
        sub = gen_formula(rng, ops, atoms, progs, size - 1, depth - ref.prog_length(prog), seq)
        return (op, prog, sub)
    return (op, gen_formula(rng, ops, atoms, progs, size - 1, depth, seq))


# --- random spaces and models --------------------------------------------------------


def gen_preorder(rng, n: int) -> list[int]:
    """Up-set table of a random preorder: a random DAG with at least one
    edge, transitively closed."""
    order = list(range(n))
    rng.shuffle(order)
    up = [1 << x for x in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 == 1 or rng.random() < 0.3 / (1 + (j - i) / 3):
                up[order[i]] |= 1 << order[j]
    for x in reversed(order):  # later points are already closed
        for y in members(up[x]):
            up[x] |= up[y]
    return up


def _preorder_json(up: list[int]) -> list[list[int]]:
    return [[x, y] for x in range(len(up)) for y in members(up[x])]


def _up_closure(up: list[int], a: int) -> int:
    out = 0
    for x in members(a):
        out |= up[x]
    return out


def gen_copies_space(rng, n: int):
    """k disjoint copies of one random preorder on m points, k * m = n, so that
    shifting copies is a homeomorphism.  Returns (up table, k, m)."""
    k = rng.choice([k for k in (1, 2, 3, 4) if n % k == 0 and n // k >= 2])
    m = n // k
    base = gen_preorder(rng, m)
    up = []
    for c in range(k):
        up.extend(row << (c * m) for row in base)
    return up, k, m


def gen_map(rng, up, k, m, kind):
    n = len(up)
    if kind == "random":
        return [rng.randrange(n) for _ in range(n)]
    if kind == "identity":
        return list(range(n))
    if kind == "shift":  # next copy, same position: a homeomorphism
        step = rng.randrange(1, k) if k > 1 else 0
        return [((x // m + step) % k) * m + x % m for x in range(n)]
    # constant onto a maximal point: continuous, and open since {y} is open
    tops = [y for y in range(n) if up[y] == 1 << y]
    y = rng.choice(tops)
    return [y] * n


def _relabel(rng, up, maps):
    """Apply one random permutation to the points of a space and its maps."""
    n = len(up)
    perm = list(range(n))
    rng.shuffle(perm)
    new_up = [0] * n
    for x in range(n):
        new_up[perm[x]] = ref.mask(perm[y] for y in members(up[x]))
    new_maps = []
    for fn in maps:
        new = [None] * n
        for x, y in enumerate(fn):
            new[perm[x]] = None if y is None else perm[y]
        new_maps.append(new)
    return new_up, new_maps


def gen_space_model(rng, index: int, n: int, kinds, partial: bool) -> dict:
    """A dtl model, or a subset model when partial.  The space's shape depends
    only on the model's index, so every seed loads spaces with the same
    number of opens; the seed picks labels, maps and valuations."""
    up, k, m = gen_copies_space(random.Random(f"shape:{index}:{n}"), n)
    maps = []
    for kind in kinds:
        fn = gen_map(rng, up, k, m, kind)
        if partial:  # an open map restricted to an open domain stays open
            dom = _up_closure(up, rng.getrandbits(n) & rng.getrandbits(n))
            if rng.random() < 0.3:
                dom = (1 << n) - 1
            fn = [fn[x] if dom >> x & 1 else None for x in range(n)]
        maps.append(fn)
    up, maps = _relabel(rng, up, maps)
    atoms = ("p", "q") if partial else ("p", "q", "r")
    return {
        "type": "subset" if partial else "dtl",
        "space": {"points": n, "preorder": _preorder_json(up)},
        "programs": {name: {"map": fn} for name, fn in zip(("a", "b"), maps)},
        "valuation": {a: members(rng.getrandbits(n)) for a in atoms},
    }


def gen_serial_model(rng) -> dict:
    """Serial relational model on at most 4 points with programs a and b."""
    n = rng.choice((2, 3, 3, 4, 4, 4))
    rel = {}
    for name in ("a", "b"):
        edges = []
        for x in range(n):
            k = rng.choices((1, 2, 3), weights=(5, 3, 1))[0]
            for y in sorted(rng.sample(range(n), min(k, n))):
                edges.append([x, y])
        rel[name] = {"rel": edges}
    return {
        "type": "pdl",
        "points": n,
        "serial": True,
        "programs": rel,
        "valuation": {a: members(rng.getrandbits(n)) for a in ("p", "q")},
    }


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# --- audit -------------------------------------------------------------------------

# (system, extra argv, trials, instances, schemes + 1 for CPL, model class)
AUDIT_KINDS = (
    ("DTEL", ["--points", "5"], 4, 3, 13, "subset"),
    ("SPDL0", ["--points", "6", "--programs", "3", "--instances", "10"], 10, 10, 3, "dtl"),
    ("SPDL0_SEQ", [], 24, 3, 4, "dtl_open"),
)
AUDIT_OPS = 120


def build_audit(rng, workdir) -> list[Op]:
    ops = []
    for i in range(AUDIT_OPS):
        system, extra, trials, instances, schemes, model_class = AUDIT_KINDS[i % 3]
        argv = ["audit", "--system", system, "--trials", str(trials),
                "--seed", str(rng.getrandbits(31))] + extra
        want = {
            "ok": True, "violations": [], "system": system, "model_class": model_class,
            "trials": trials, "instances": instances,
            "checked": trials * instances * schemes,
        }
        ops.append(Op(system, argv, _json_check(
            lambda code, doc, want=want: _expect(code, 0, doc, want))))
    return ops


# --- refute ------------------------------------------------------------------------

P, Q = ("atom", "p"), ("atom", "q")


def _imp(a, b):
    return ("imp", a, b)


def _iff(a, b):
    return ("iff", a, b)


# (formula, model class, bound, passes per round); sound on the class, so the
# search exhausts the bound.  Bound-4 entries enumerate all 355 four-point
# topologies; the subset one spends most of its time filtering open maps.
EXHAUSTIVE = (
    (_imp(("K", P), ("int", P)), "subset", 4, 1),
    (_imp(("K", P), ("int", P)), "subset", 3, 3),
    (_imp(("K", P), P), "subset", 3, 3),
    (_imp(("K", P), ("K", ("K", P))), "subset", 3, 3),
    (_imp(("int", ("next", "a", P)), ("next", "a", ("int", P))), "dtl_open", 3, 3),
    (_imp(("next", "a", ("int", P)), ("int", ("next", "a", P))), "dtl_continuous", 3, 3),
    (_imp(("boxp", "a", P), ("dia", "a", P)), "pdl_serial", 3, 3),
    (_imp(("int", P), P), "dtl", 4, 3),
    (("top",), "dtl", 4, 3),
    (_imp(("int", P), ("int", ("int", P))), "dtl", 3, 3),
    (_imp(("and", ("int", P), ("int", Q)), ("int", ("and", P, Q))), "dtl", 3, 3),
    (_iff(("dia", "a", P), ("cl", ("next", "a", P))), "dtl", 3, 3),
    (_iff(("next", "a", ("not", P)), ("not", ("next", "a", P))), "dtl", 3, 3),
    (_iff(("next", "a", ("and", P, Q)), ("and", ("next", "a", P), ("next", "a", Q))), "dtl", 2, 3),
)

# refuted by a small model within a few milliseconds
REFUTABLE = (
    (_imp(("next", "a", ("int", P)), ("int", ("next", "a", P))), "dtl", 4),
    (_imp(("int", ("next", "a", P)), ("next", "a", ("int", P))), "dtl", 4),
    (_iff(("dia", ("seq", "a", "b"), P), ("dia", "a", ("dia", "b", P))), "dtl", 4),
    (_imp(P, ("K", P)), "subset", 4),
    (("next", "a", ("top",)), "subset", 4),
    (_imp(P, ("int", P)), "dtl", 3),
    (_imp(("cl", P), P), "dtl", 3),
    (_imp(P, ("next", "a", P)), "dtl", 3),
    (_imp(("dia", "a", P), P), "pdl_serial", 3),
    (_imp(P, ("boxp", "a", P)), "pdl_serial", 3),
    (_imp(("Khat", P), ("K", P)), "subset", 4),
    (_imp(("int", P), ("K", P)), "subset", 4),
    (_imp(("next", "a", P), ("next", "b", P)), "dtl", 4),
    (_imp(("cl", P), ("int", P)), "dtl_open", 4),
    (_imp(("next", "a", ("cl", P)), ("cl", ("next", "a", P))), "dtl", 4),
    (_imp(("dia", "a", P), ("next", "a", P)), "dtl_continuous", 4),
    (_imp(P, ("dia", "a", P)), "pdl_serial", 3),
    (_imp(("boxp", "a", P), ("boxp", "b", P)), "pdl_serial", 3),
    (_imp(("next", "a", P), P), "subset", 4),
    (_imp(("int", ("cl", P)), ("cl", ("int", P))), "dtl", 4),
    (_imp(("dia", "a", P), ("boxp", "a", P)), "dtl", 3),
    (_imp(("dia", "a", ("dia", "a", P)), ("dia", "a", P)), "pdl_serial", 3),
    (_imp(("cl", ("int", P)), P), "dtl_continuous", 3),
    (_imp(("next", "b", P), ("K", P)), "subset", 4),
    (_imp(("next", "a", P), ("next", "a", ("next", "a", P))), "dtl", 3),
    (_imp(("Khat", ("next", "a", P)), ("next", "a", ("Khat", P))), "subset", 4),
    (_imp(("int", P), ("next", "a", ("int", P))), "dtl_open", 4),
    (_imp(("boxp", ("seq", "a", "b"), P), ("boxp", "a", P)), "pdl_serial", 3),
)
REFUTE_PASSES = 3  # per round, for each refutable entry


def _refute_check(f, model_class, bound, exhaustive) -> Check:
    def check(code: int, doc: dict) -> Optional[str]:
        if exhaustive:
            return _expect(code, 0, doc, {"found": False, "bound": bound, "model_class": model_class})
        if code != 1 or doc.get("found") is not True:
            return f"exit {code}, found {doc.get('found')!r}; a countermodel exists"
        model = ref.Model(doc["model"])
        if model.n > bound or not ref.in_class(model, model_class):
            return f"witness model is not a {model_class} model within bound {bound}"
        if "scenario" in doc:
            x, u = doc["scenario"]["x"], ref.mask(doc["scenario"]["u"])
            if not (model.space.is_open(u) and u >> x & 1):
                return "witness scenario is not a point in an open set"
            holds = model.scenario_extension(f, u) >> x & 1
        else:
            holds = model.extension(f) >> doc["point"] & 1
        return "formula holds at the witness" if holds else None

    return _json_check(check)


def build_refute(rng, workdir) -> list[Op]:
    entries = [((f, c, b), True) for f, c, b, passes in EXHAUSTIVE for _ in range(passes)]
    entries += [(e, False) for e in REFUTABLE] * REFUTE_PASSES
    rng.shuffle(entries)
    ops = []
    for (f, model_class, bound), exhaustive in entries:
        argv = ["refute", "-f", ref.text(f), "--bound", str(bound), "--model-class", model_class]
        kind = "exhaustive" if exhaustive else "refutable"
        ops.append(Op(kind, argv, _refute_check(f, model_class, bound, exhaustive)))
    return ops


# --- transform ---------------------------------------------------------------------

TRANSFORM_DEPTH = 3
TRANSFORM_BUDGET = 500
# (exclusive low, inclusive high) of the largest stratum -> models per round.
# Op time grows with the networks built, so fixed counts per size band keep
# the round's work the same for every seed.  The p50 and p90 ranks fall
# inside the (75, 150] and top bands, away from band edges.  The last band is
# over budget and must be refused.
TRANSFORM_BANDS = {
    (0, 10): 10, (10, 30): 10, (30, 75): 16, (75, 150): 16, (150, 250): 12,
    (250, 375): 12, (375, TRANSFORM_BUDGET): 28, (TRANSFORM_BUDGET, 10**9): 16,
}


# Shapes of the 20 checked formulas: M is a relational modality, N a
# negation, B a binary connective, A an atom.  The seed fills in which ones,
# so every op checks formulas of the same cost.
TRANSFORM_SHAPES = (
    "A", "MA", "NMA", "MMA", "B(A,MA)", "MB(A,A)", "MMMA", "B(MA,MA)", "NMMA", "MNMA",
    "B(MMA,A)", "MB(A,MA)", "B(MA,MMA)", "MMB(A,A)", "B(A,B(MA,A))", "MB(MA,MA)",
    "NB(MMA,MA)", "B(MMMA,A)", "MMNMA", "B(B(MA,A),MMA)",
)


def fill_shape(rng, shape: str):
    """A relational formula of the given shape with random atoms, programs and
    connectives."""
    def parse(i):
        c = shape[i]
        if c == "A":
            return ("atom", rng.choice(("p", "q"))), i + 1
        if c == "N":
            body, i = parse(i + 1)
            return ("not", body), i
        if c == "M":
            body, i = parse(i + 1)
            return (rng.choice(("dia", "boxp")), rng.choice(("a", "b")), body), i
        left, i = parse(i + 2)  # B(left,right)
        right, i = parse(i + 1)
        return (rng.choice(tuple(ref.BINARY)), left, right), i + 1

    return parse(0)[0]


def _transform_check(sizes: list[int], refused: bool) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if refused:
            return None if code == 2 and not out else f"exit {code}; the budget should refuse"
        try:
            doc = json.loads(out)
        except ValueError:
            return f"exit {code} with no JSON on stdout"
        want = {"stratum_sizes": sizes}
        bad = _expect(code, 0, doc, want)
        if bad:
            return bad
        report = doc.get("preservation", {})
        if report.get("ok") is not True or report.get("disagreements") != []:
            return "truth preservation failed"
        want_checked = len(TRANSFORM_SHAPES) * sizes[-1]
        if report.get("checked") != want_checked:
            return f"checked {report.get('checked')}, expected {want_checked}"
        if doc["network_space"]["space"]["points"] != sum(sizes):
            return "network space has the wrong number of points"
        return None

    return check


def build_transform(rng, workdir) -> list[Op]:
    wanted = dict(TRANSFORM_BANDS)
    ops = []
    while any(wanted.values()):
        doc = gen_serial_model(rng)
        model = ref.Model(doc)
        sizes = ref.stratum_sizes(model.succ, model.n, TRANSFORM_DEPTH)
        band = next(b for b in wanted if b[0] < max(sizes) <= b[1])
        if not wanted[band]:
            continue
        wanted[band] -= 1
        path = _write(workdir, f"transform-{len(ops)}.json", doc)
        formulas = [ref.text(fill_shape(rng, shape)) for shape in TRANSFORM_SHAPES]
        refused = max(sizes) > TRANSFORM_BUDGET
        argv = ["transform", "-m", path, "--depth", str(TRANSFORM_DEPTH),
                "--budget", str(TRANSFORM_BUDGET), "--check", "; ".join(formulas)]
        ops.append(Op("refused" if refused else f"built<={band[1]}", argv,
                      _transform_check(sizes, refused)))
    rng.shuffle(ops)
    return ops


# --- query -------------------------------------------------------------------------

# Model sizes and program-map kinds are fixed, and ops take models in turn,
# so every seed loads the same mix of 8..12-point spaces.
QUERY_SIZES = (8, 9, 10, 11, 12, 8, 9, 10, 11, 12, 10, 12) * 2
DTL_MAPS = (("random", "identity"), ("shift", "random"), ("constant", "shift"),
            ("random", "random"), ("identity", "constant"), ("shift", "shift"))
SUBSET_MAPS = (("identity", "shift"), ("shift", "constant"), ("constant", "identity"),
               ("shift", "shift"))
# op kind -> ops per round
QUERY_MIX = {"eval_dtl": 96, "eval_subset": 96, "frame": 24, "announce": 48, "prove": 32}
# frame --scheme checks 2^n valuations per map, so it runs on the smaller models
FRAME_MODELS = [i for i, n in enumerate(QUERY_SIZES) if n <= 10]


def _eval_dtl_check(model, f, at) -> Check:
    want = model.extension(f)

    def check(code: int, doc: dict) -> Optional[str]:
        if at is None:
            return _expect(code, 0, doc, {"extension": members(want)})
        truth = bool(want >> at & 1)
        return _expect(code, 0 if truth else 1, doc, {"truth": truth, "at": at})

    return _json_check(check)


def _eval_subset_check(model, f, x, u) -> Check:
    truth = bool(model.scenario_extension(f, u) >> x & 1)
    want = {"truth": truth, "scenario": {"x": x, "u": members(u)}}
    return _json_check(lambda code, doc: _expect(code, 0 if truth else 1, doc, want))


def _frame_check(model, prop) -> Check:
    decide = ref.continuous if prop == "continuity" else ref.open_map
    verdicts = {name: decide(model.space, fn) for name, fn in model.maps.items()}

    def check(code: int, doc: dict) -> Optional[str]:
        holds = all(verdicts.values())
        bad = _expect(code, 0 if holds else 1, doc, {"holds": holds, "property": prop})
        if bad:
            return bad
        for name, want in verdicts.items():
            entry = doc["programs"][name]
            if (entry["holds"], entry["scheme"]["holds"], entry["routes_agree"]) != (want, want, True):
                return f"program {name}: holds {entry['holds']}, expected {want}"
        return None

    return _json_check(check)


def _announce_check(model, phi, x, u) -> Check:
    guard = model.space.interior(model.scenario_extension(phi, model.space.full))
    holds = bool(guard >> x & 1)
    updated = {"x": x, "u": members(u & guard)} if holds else None
    want = {"precondition_holds": holds, "updated": updated, "identity_agrees": True}
    return _json_check(lambda code, doc: _expect(code, 0, doc, want))


def _scenario(rng, model):
    opens = model.space.opens()
    i = rng.randrange(1, len(opens))  # index 0 is the empty set
    u = opens[i]
    return rng.choice(members(u)), u, i


def build_query(rng, workdir) -> list[Op]:
    dtl, subset = [], []
    for i, n in enumerate(QUERY_SIZES):
        doc = gen_space_model(rng, i, n, DTL_MAPS[i % len(DTL_MAPS)], partial=False)
        dtl.append((_write(workdir, f"dtl-{i}.json", doc), ref.Model(doc)))
        doc = gen_space_model(rng, i, n, SUBSET_MAPS[i % len(SUBSET_MAPS)], partial=True)
        subset.append((_write(workdir, f"subset-{i}.json", doc), ref.Model(doc)))
    proofs = [
        (_write(workdir, f"derivation-{i}.json", doc), step)
        for i, (doc, step) in enumerate(derivations())
    ]
    ops = []
    for i in range(QUERY_MIX["eval_dtl"]):
        path, model = dtl[i % len(dtl)]
        f = gen_formula(rng, DTL, ("p", "q", "r"), ("a", "b"), 2 + i % 7, 3, seq=True)
        at = rng.randrange(model.n) if i % 3 == 0 else None
        argv = ["eval", "-m", path, "-f", ref.text(f)] + ([] if at is None else ["--at", str(at)])
        ops.append(Op("eval_dtl", argv, _eval_dtl_check(model, f, at)))
    for i in range(QUERY_MIX["eval_subset"]):
        path, model = subset[i % len(subset)]
        f = gen_formula(rng, SUBSET, ("p", "q"), ("a", "b"), 2 + i % 7, 3)
        x, u, index = _scenario(rng, model)
        argv = ["eval", "-m", path, "-f", ref.text(f), "--scenario", f"{x},{index}"]
        ops.append(Op("eval_subset", argv, _eval_subset_check(model, f, x, u)))
    for i in range(QUERY_MIX["frame"]):
        path, model = dtl[FRAME_MODELS[i // 2 % len(FRAME_MODELS)]]
        prop = ("continuity", "openness")[i % 2]
        argv = ["frame", "-m", path, "--prop", prop, "--scheme"]
        ops.append(Op("frame", argv, _frame_check(model, prop)))
    for i in range(QUERY_MIX["announce"]):
        path, model = subset[i % len(subset)]
        phi = gen_formula(rng, BOX_NEXT, ("p", "q"), ("a", "b"), 1 + i % 5, 2)
        psi = gen_formula(rng, SUBSET, ("p", "q"), ("a", "b"), 1 + (i + 2) % 5, 2)
        x, u, index = _scenario(rng, model)
        argv = ["announce", "-m", path, "--phi", ref.text(phi), "--psi", ref.text(psi),
                "--scenario", f"{x},{index}"]
        ops.append(Op("announce", argv, _announce_check(model, phi, x, u)))
    for i in range(QUERY_MIX["prove"]):
        path, step = proofs[i % len(proofs)]
        want = {"ok": True} if step is None else {"ok": False, "step": step}
        ops.append(Op("prove", ["prove", "-d", path], _json_check(
            lambda code, doc, want=want: _expect(code, 0 if want["ok"] else 1, doc, want))))
    rng.shuffle(ops)
    return ops


# --- derivations: the acceptance-suite proofs and mutations rejected at a known step --

_BOX_PROJ = ("SPDL0", [
    ("p & q -> p", {"axiom": "CPL"}),
    ("[a] (p & q -> p)", {"nec": {"mod": "a", "from": 1}}),
    ("[a] (p & q -> p) -> [a] (p & q) -> [a] p", {"axiom": "K"}),
    ("[a] (p & q) -> [a] p", {"mp": [2, 3]}),
])
_KNOW_FACTIVE = ("DTEL", [
    ("K p -> box p", {"axiom": "KI"}),
    ("box p -> p", {"axiom": "T_Box"}),
    ("(K p -> box p) -> (box p -> p) -> K p -> p", {"axiom": "CPL"}),
    ("(box p -> p) -> K p -> p", {"mp": [1, 3]}),
    ("K p -> p", {"mp": [2, 4]}),
])
_SEQ_HALF = ("SPDL0_SEQ", [
    ("<a;b>p <-> <a><b>p", {"axiom": "Seq"}),
    ("(<a;b>p <-> <a><b>p) -> <a;b>p -> <a><b>p", {"axiom": "CPL"}),
    ("<a;b>p -> <a><b>p", {"mp": [1, 2]}),
])
_NEC_CHAIN = ("DTEL", [
    ("p -> p", {"axiom": "CPL"}),
    ("K (p -> p)", {"nec": {"mod": "K", "from": 1}}),
    ("box K (p -> p)", {"nec": {"mod": "box", "from": 2}}),
])

# (base, step to change, replacement formula or None, replacement justification
#  or None, system override or None, step at which the checker must reject)
_MUTATIONS = (
    (_BOX_PROJ, 4, None, {"mp": [1, 3]}, None, 4),
    (_BOX_PROJ, 4, None, {"mp": [4, 3]}, None, 4),
    (_BOX_PROJ, 4, None, {"mp": [2, 2]}, None, 4),
    (_BOX_PROJ, 2, None, {"nec": {"mod": "a", "from": 3}}, None, 2),
    (_BOX_PROJ, 1, None, {"axiom": "K"}, None, 1),
    (_BOX_PROJ, 3, None, {"axiom": "D"}, None, 3),
    (_BOX_PROJ, 1, "p | q -> p", None, None, 1),
    (_BOX_PROJ, 2, "[b] (p & q -> p)", None, None, 2),
    (_BOX_PROJ, 3, "[a] (p & q -> q) -> [a] (p & q) -> [a] q", None, None, 4),
    (_BOX_PROJ, 2, None, {"nec": {"mod": "b", "from": 1}}, None, 2),
    (_BOX_PROJ, None, None, None, "DTEL", 2),
    (_KNOW_FACTIVE, 5, None, {"mp": [3, 4]}, None, 5),
    (_KNOW_FACTIVE, 4, None, {"mp": [1, 5]}, None, 4),
    (_KNOW_FACTIVE, 1, None, {"axiom": "T_K"}, None, 1),
    (_KNOW_FACTIVE, 2, None, {"axiom": "4_Box"}, None, 2),
    (_KNOW_FACTIVE, 3, "(K p -> box p) -> (box q -> q) -> K p -> p", None, None, 3),
    (_KNOW_FACTIVE, 5, "K q -> q", None, None, 5),
    (_KNOW_FACTIVE, 4, None, {"nec": {"mod": "K", "from": 3}}, None, 4),
    (_KNOW_FACTIVE, None, None, None, "SPDL0", 1),
    (_SEQ_HALF, 1, "<a;b>p <-> <b><a>p", None, None, 1),
    (_SEQ_HALF, 3, None, {"mp": [1, 3]}, None, 3),
    (_SEQ_HALF, 1, None, {"axiom": "K"}, None, 1),
    (_SEQ_HALF, None, None, None, "SPDL0", 1),
    (_NEC_CHAIN, 3, None, {"nec": {"mod": "box", "from": 3}}, None, 3),
    (_NEC_CHAIN, 2, None, {"nec": {"mod": "a", "from": 1}}, None, 2),
    (_NEC_CHAIN, 3, None, {"nec": {"mod": "K", "from": 2}}, None, 3),
)


def _derivation(base, step=None, formula=None, by=None, system=None) -> dict:
    name, steps = base
    out = [{"formula": f, "by": b} for f, b in steps]
    if step is not None:
        if formula is not None:
            out[step - 1]["formula"] = formula
        if by is not None:
            out[step - 1]["by"] = by
    return {"system": system or name, "steps": out}


def derivations() -> list[tuple[dict, Optional[int]]]:
    """(document, step the checker rejects at, or None for a valid proof)."""
    out = [(_derivation(base), None) for base in (_BOX_PROJ, _KNOW_FACTIVE, _SEQ_HALF, _NEC_CHAIN)]
    for base, step, formula, by, system, reject in _MUTATIONS:
        out.append((_derivation(base, step, formula, by, system), reject))
    return out


BUILDERS = {
    "audit": build_audit,
    "refute": build_refute,
    "transform": build_transform,
    "query": build_query,
}


def build(name: str, seed: int, workdir: str) -> list[Op]:
    return BUILDERS[name](random.Random(f"{name}:{seed}"), workdir)
