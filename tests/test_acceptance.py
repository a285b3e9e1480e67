"""Release gate: one test per shipped guarantee, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines; without
``-s`` they are captured but the assertions still enforce every criterion.
"""

import contextlib
import io
import itertools
import json
import time

from topodyn.announce import check_test_announcement_identity
from topodyn.checker import SubsetEvaluator, eval_dtl
from topodyn.cli import main
from topodyn.formula import Language, format_formula, parse
from topodyn.frameprops import (
    CONTINUITY,
    OPENNESS,
    build_continuity_countermodel,
    build_openness_countermodel,
    is_continuous,
    is_open_map,
    scheme_formula,
    validates_scheme,
)
from topodyn.harness import GenConfig, _derived_rng, audit, gen_formula, gen_model
from topodyn.models import DTModel, Scenario, SubsetModel, model_from_json
from topodyn.proofkit import check_derivation, derivation_from_json, get_system
from topodyn.topology import TopoSpace, all_functions, all_topologies, iter_points
from topodyn.transform import (
    build_network_space,
    check_shift_openness,
    check_truth_preservation,
    stratum_counts,
)

TRANSFORM_CFG = GenConfig(seed=20260814, max_points=4, num_programs=2, model_class="pdl_serial")


@contextlib.contextmanager
def criterion(num, label, limit=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None:
            assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit:g}s"
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {label}")
        raise
    timing = f"{elapsed:.2f}s < {limit:g}s" if limit is not None else f"{elapsed:.2f}s"
    print(f"ACCEPTANCE {num:02d} PASS ({timing}): {label}")


def test_c01_interior_laws_exhaustive():
    with criterion(1, "interior laws and closure duality on all 29 three-point topologies", limit=1.0):
        spaces = list(all_topologies(3))
        assert len(spaces) == 29
        for space in spaces:
            full = space.full
            assert space.interior(full) == full
            for a in range(1 << 3):
                ia = space.interior(a)
                assert ia & ~a == 0
                assert space.interior(ia) == ia
                assert space.closure(a) == full & ~space.interior(full & ~a)
                for b in range(1 << 3):
                    assert space.interior(a & b) == ia & space.interior(b)


# space, map, and the two semantic verdicts; shared by criteria 2 and 3
_TABLE: list = []


def _scheme_table():
    if not _TABLE:
        for space in all_topologies(3):
            for fn in all_functions(3):
                _TABLE.append((space, fn,
                               is_continuous(space, fn).holds,
                               is_open_map(space, fn).holds))
    return _TABLE


def test_c02_scheme_validity_matches_map_properties():
    with criterion(2, "scheme validity equals continuity/openness on all 783 space-map pairs", limit=10.0):
        table = _scheme_table()
        assert len(table) == 29 * 27
        for space, fn, cont, open_ in table:
            assert validates_scheme(space, fn, CONTINUITY).holds == cont
            assert validates_scheme(space, fn, OPENNESS).holds == open_


def test_c03_countermodel_builders_reverify():
    with criterion(3, "every built countermodel falsifies its scheme instance"):
        cont_scheme = scheme_formula(CONTINUITY, "a")
        open_scheme = scheme_formula(OPENNESS, "a")
        refuted = 0
        for space, fn, cont, open_ in _scheme_table():
            for holds, build, scheme in (
                (cont, build_continuity_countermodel, cont_scheme),
                (open_, build_openness_countermodel, open_scheme),
            ):
                got = build(space, fn)
                if holds:
                    assert got is None
                    continue
                valuation, point = got
                model = DTModel(space, ("a",), {"a": fn}, {"p": valuation})
                assert not eval_dtl(model, scheme) >> point & 1
                refuted += 1
        assert refuted > 0


def test_c04_spdl0_soundness_audit():
    with criterion(4, "SPDL0 audit clean on 1000 models; D clean on 1000 serial models", limit=60.0):
        rep = audit("SPDL0", GenConfig(seed=11, max_points=6, num_programs=3),
                    trials=1000, instances=10)
        assert rep.ok
        assert rep.checked == 3 * 1000 * 10  # CPL, K, D
        serial = audit("SPDL0", GenConfig(seed=14, max_points=6, num_programs=3,
                                          model_class="pdl_serial"),
                       trials=1000, schemes=("D",))
        assert serial.ok and serial.checked == 3000


def test_c05_sequencing_axiom():
    with criterion(5, "sequencing: equality on open maps, inclusion in general, refutable in general", limit=60.0):
        bodies = ["p", "box p", "<a>p"]
        for i in range(1000):
            m = gen_model(GenConfig(seed=15, max_points=4, num_programs=2,
                                    model_class="dtl_open"), index=i)
            a, b = m.alphabet[:2]
            for body in bodies:
                assert eval_dtl(m, parse(f"<{a};{b}>({body})")) == \
                    eval_dtl(m, parse(f"<{a}><{b}>({body})"))
        for i in range(1000):
            m = gen_model(GenConfig(seed=16, max_points=4, num_programs=2,
                                    model_class="dtl"), index=i)
            a, b = m.alphabet[:2]
            for body in bodies:
                lhs = eval_dtl(m, parse(f"<{a};{b}>({body})"))
                rhs = eval_dtl(m, parse(f"<{a}><{b}>({body})"))
                assert lhs & ~rhs == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["refute", "-f", "<a;b>p <-> <a><b>p", "--bound", "4"])
        assert code == 1
        found = json.loads(buf.getvalue())
        assert found["found"] is True
        assert found["model"]["space"]["points"] <= 4
        witness = model_from_json(found["model"])
        assert not eval_dtl(witness, parse("<a;b>p <-> <a><b>p")) >> found["point"] & 1


def test_c06_network_transformation_preserves_truth():
    with criterion(6, "networks preserve truth for 200 models x 20 formulas at depth 2", limit=120.0):
        for i in range(200):
            m = gen_model(TRANSFORM_CFG, index=i)
            rng = _derived_rng(TRANSFORM_CFG.seed, 7, i)
            formulas = [gen_formula(rng, ("p", "q"), m.alphabet, modal_budget=2,
                                    size_budget=5, allow_seq=False)
                        for _ in range(20)]
            report = check_truth_preservation(m, formulas, depth=2, budget=400_000)
            assert report.ok, (i, report.disagreements)
            counts = stratum_counts(m, 2)
            # a depth-(d+1) network chooses, per program, a depth-d network
            # rooted at one of the successors
            expected = [[1] * m.n]
            for d in range(2):
                expected.append([
                    _product(sum(expected[d][y] for y in iter_points(m.rel[prog][x]))
                             for prog in m.alphabet)
                    for x in range(m.n)
                ])
            assert counts == expected
            assert report.checked == 20 * sum(counts[2])


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def test_c07_shift_maps_are_open():
    with criterion(7, "shift maps are open with cell-union images in every generated space"):
        for i in range(200):
            m = gen_model(TRANSFORM_CFG, index=i)
            space = build_network_space(m, 2, 400_000)
            assert check_shift_openness(space) == []


def test_c08_dtel_soundness_and_rules():
    with criterion(8, "DTEL audit clean; Mon admissible; program necessitation refused", limit=120.0):
        rep = audit("DTEL", GenConfig(seed=12, max_points=5, num_programs=2), trials=500)
        assert rep.ok
        assert rep.checked == (len(get_system("DTEL").schemes) + 1) * 500 * 3

        pairs = [("p & q", "p"), ("p", "p | q"), ("p", "q"), ("q", "p"),
                 ("K p", "p"), ("box p", "p")]
        premise_held = 0
        for i in range(200):
            m = gen_model(GenConfig(seed=18, max_points=5, num_programs=2,
                                    model_class="subset"), index=i)
            for phi, psi in pairs:
                if not _globally(m, parse(f"({phi}) -> ({psi})")):
                    continue
                premise_held += 1
                for prog in m.alphabet:
                    assert _globally(m, parse(f"O[{prog}] ({phi}) -> O[{prog}] ({psi})"))
        assert premise_held == 980  # frozen count; guards against a vacuous sweep

        bad = {"system": "DTEL", "steps": [
            {"formula": "p -> p", "by": {"axiom": "CPL"}},
            {"formula": "O[a] (p -> p)", "by": {"nec": {"mod": "a", "from": 1}}},
        ]}
        res = check_derivation(derivation_from_json(bad))
        assert (res.ok, res.step) == (False, 2)

        # nowhere-defined program: the premise p -> p is globally true yet
        # O[a](p -> p) fails at every scenario, so the rule cannot be sound
        sier = TopoSpace.from_opens(2, [[], [1], [0, 1]])
        witness = SubsetModel(sier, ("a",), {"a": (None, None)}, {"p": 0b10})
        ev = SubsetEvaluator(witness)
        assert all(ev.extension(parse("p -> p"), u) == u for u in sier.opens)
        assert all(ev.extension(parse("O[a] top"), u) == 0 for u in sier.opens)
        assert all(ev.extension(parse("O[a] (p -> p)"), u) == 0 for u in sier.opens)


def _globally(model, f):
    ev = SubsetEvaluator(model)
    return all(ev.extension(f, u) == u for u in model.space.opens)


def test_c09_test_programs_match_announcements():
    with criterion(9, "test-program and announcement routes agree, exhaustive + 500 random"):
        phis = [parse("p"), parse("box p")]
        psis = [parse("p"), parse("K p"), parse("O[a] p")]
        checked = 0
        for n in (1, 2, 3):
            for space in all_topologies(n):
                for pmap in itertools.product((None, *range(n)), repeat=n):
                    if not is_open_map(space, pmap).holds:
                        continue
                    for vp in range(1 << n):
                        m = SubsetModel(space, ("a",), {"a": pmap}, {"p": vp})
                        for u in space.opens:
                            for x in iter_points(u):
                                for phi in phis:
                                    for psi in psis:
                                        assert check_test_announcement_identity(
                                            m, phi, psi, Scenario(x, u))
                                        checked += 1
        assert checked == 218184

        for i in range(500):
            m = gen_model(GenConfig(seed=17, max_points=5, num_programs=2,
                                    model_class="subset"), index=i)
            rng = _derived_rng(17, 9, i)
            phi = gen_formula(rng, ("p", "q"), m.alphabet, modal_budget=2, size_budget=4,
                              lang=Language.BOX_NEXT, allow_seq=False, allow_tests=True)
            psi = gen_formula(rng, ("p", "q"), m.alphabet, modal_budget=2, size_budget=4,
                              lang=Language.K_BOX_NEXT, allow_seq=False)
            for u in m.space.opens:
                for x in iter_points(u):
                    assert check_test_announcement_identity(m, phi, psi, Scenario(x, u))


# --- criterion 10: derivation mutations -----------------------------------------


BOX_PROJ = {
    "system": "SPDL0",
    "steps": [
        {"formula": "p & q -> p", "by": {"axiom": "CPL"}},
        {"formula": "[a] (p & q -> p)", "by": {"nec": {"mod": "a", "from": 1}}},
        {"formula": "[a] (p & q -> p) -> [a] (p & q) -> [a] p", "by": {"axiom": "K"}},
        {"formula": "[a] (p & q) -> [a] p", "by": {"mp": [2, 3]}},
    ],
}

KNOW_FACTIVE = {
    "system": "DTEL",
    "steps": [
        {"formula": "K p -> box p", "by": {"axiom": "KI"}},
        {"formula": "box p -> p", "by": {"axiom": "T_Box"}},
        {"formula": "(K p -> box p) -> (box p -> p) -> K p -> p", "by": {"axiom": "CPL"}},
        {"formula": "(box p -> p) -> K p -> p", "by": {"mp": [1, 3]}},
        {"formula": "K p -> p", "by": {"mp": [2, 4]}},
    ],
}

SEQ_HALF = {
    "system": "SPDL0_SEQ",
    "steps": [
        {"formula": "<a;b>p <-> <a><b>p", "by": {"axiom": "Seq"}},
        {"formula": "(<a;b>p <-> <a><b>p) -> <a;b>p -> <a><b>p", "by": {"axiom": "CPL"}},
        {"formula": "<a;b>p -> <a><b>p", "by": {"mp": [1, 2]}},
    ],
}

NEC_CHAIN = {
    "system": "DTEL",
    "steps": [
        {"formula": "p -> p", "by": {"axiom": "CPL"}},
        {"formula": "K (p -> p)", "by": {"nec": {"mod": "K", "from": 1}}},
        {"formula": "box K (p -> p)", "by": {"nec": {"mod": "box", "from": 2}}},
    ],
}

DTEL_NAMES = ("CPL", "K_K", "T_K", "4_K", "5_K", "K_Box", "T_Box", "4_Box",
              "KI", "NotPC", "AndC", "KPC", "Openness", "D")


def _mutation_catalogue():
    muts = []

    def add(base, step, expect, **patch):
        corrupted = json.loads(json.dumps(base))
        corrupted["steps"][step - 1].update(patch)
        assert corrupted != base
        muts.append((corrupted, expect))

    def add_system(base, system, expect):
        corrupted = json.loads(json.dumps(base))
        corrupted["system"] = system
        muts.append((corrupted, expect))

    # wrong, self-, or forward references in rule premises
    for r in (1, 3, 4):
        add(BOX_PROJ, 4, 4, by={"mp": [r, 3]})
    for r in (1, 2, 4):
        add(BOX_PROJ, 4, 4, by={"mp": [2, r]})
    for r in (2, 3, 4):
        add(BOX_PROJ, 2, 2, by={"nec": {"mod": "a", "from": r}})
    for r in (2, 3, 4, 5):
        add(KNOW_FACTIVE, 4, 4, by={"mp": [r, 3]})
    for r in (1, 2, 4, 5):
        add(KNOW_FACTIVE, 4, 4, by={"mp": [1, r]})
    for r in (1, 3, 4, 5):
        add(KNOW_FACTIVE, 5, 5, by={"mp": [r, 4]})
    for r in (1, 2, 3, 5):
        add(KNOW_FACTIVE, 5, 5, by={"mp": [2, r]})
    for r in (2, 3):
        add(SEQ_HALF, 3, 3, by={"mp": [r, 2]})
    for r in (1, 3):
        add(SEQ_HALF, 3, 3, by={"mp": [1, r]})
    for r in (2, 3):
        add(NEC_CHAIN, 2, 2, by={"nec": {"mod": "K", "from": r}})
    add(NEC_CHAIN, 3, 3, by={"nec": {"mod": "box", "from": 1}})
    add(NEC_CHAIN, 3, 3, by={"nec": {"mod": "box", "from": 3}})

    # axiom relabelled to a scheme the formula does not instantiate
    for name in ("K", "D", "Seq"):
        add(BOX_PROJ, 1, 1, by={"axiom": name})
    for name in ("CPL", "D", "KI"):
        add(BOX_PROJ, 3, 3, by={"axiom": name})
    for name in DTEL_NAMES:
        if name != "KI":
            add(KNOW_FACTIVE, 1, 1, by={"axiom": name})
        if name != "T_Box":
            add(KNOW_FACTIVE, 2, 2, by={"axiom": name})
        if name != "CPL":
            add(KNOW_FACTIVE, 3, 3, by={"axiom": name})
    for name in ("CPL", "K", "D", "T"):
        add(SEQ_HALF, 1, 1, by={"axiom": name})

    # perturbed step formulas
    add(BOX_PROJ, 1, 1, formula="p | q -> p")
    add(BOX_PROJ, 2, 2, formula="[b] (p & q -> p)")
    add(BOX_PROJ, 3, 4, formula="[a] (p & q -> q) -> [a] (p & q) -> [a] q")
    add(BOX_PROJ, 4, 4, formula="[a] (p & q) -> [a] q")
    add(KNOW_FACTIVE, 2, 2, formula="box p -> q")
    add(KNOW_FACTIVE, 3, 3, formula="(K p -> box p) -> (box q -> q) -> K p -> p")
    add(KNOW_FACTIVE, 5, 5, formula="K q -> q")
    add(SEQ_HALF, 1, 1, formula="<a;b>p <-> <b><a>p")
    add(SEQ_HALF, 2, 2, formula="(<a;b>p <-> <a><b>p) -> <a;b>p -> <b>p")
    add(SEQ_HALF, 3, 3, formula="<a;b>p -> <b><a>p")

    # justification swapped for the wrong kind of step
    add(BOX_PROJ, 4, 4, by={"axiom": "K"})
    add(BOX_PROJ, 2, 2, by={"mp": [1, 1]})
    add(KNOW_FACTIVE, 4, 4, by={"nec": {"mod": "K", "from": 3}})
    add(SEQ_HALF, 3, 3, by={"axiom": "CPL"})

    # rules or modalities the claimed system does not have
    add(BOX_PROJ, 2, 2, by={"nec": {"mod": "b", "from": 1}})
    add(NEC_CHAIN, 2, 2, by={"nec": {"mod": "box", "from": 1}})
    add(NEC_CHAIN, 3, 3, by={"nec": {"mod": "K", "from": 2}})
    add(NEC_CHAIN, 2, 2, by={"nec": {"mod": "a", "from": 1}})
    add_system(BOX_PROJ, "DTEL", 2)
    add_system(KNOW_FACTIVE, "SPDL0", 1)
    add_system(SEQ_HALF, "SPDL0", 1)

    return muts


def test_c10_derivation_checker_rejects_mutations():
    with criterion(10, "sample derivation checks; 100+ mutations rejected at the right step"):
        for base in (BOX_PROJ, KNOW_FACTIVE, SEQ_HALF, NEC_CHAIN):
            assert check_derivation(derivation_from_json(base)).ok
        catalogue = _mutation_catalogue()
        assert len(catalogue) >= 100
        for corrupted, expect in catalogue:
            res = check_derivation(derivation_from_json(corrupted))
            assert not res.ok, corrupted
            assert res.step == expect, (corrupted, res.step, res.error, res.detail)


def test_c11_repeat_runs_byte_identical():
    with criterion(11, "same-seed audit and refute runs print byte-identical JSON"):
        commands = [
            ["audit", "--system", "SPDL0", "--trials", "50", "--seed", "31", "--points", "4"],
            ["audit", "--system", "DTEL", "--trials", "20", "--seed", "32", "--points", "4"],
            ["audit", "--system", "SPDL0_SEQ", "--model-class", "dtl",
             "--trials", "30", "--seed", "3", "--points", "4"],
            ["refute", "-f", "p -> box p", "--bound", "3"],
            ["refute", "-f", "<a;b>p <-> <a><b>p", "--bound", "3"],
            ["refute", "-f", "box p -> p", "--bound", "3"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    main(argv)
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1], argv
