"""Bounded network spaces.

The independent oracle enumerates word labelings directly: a depth-d network
is a map from program words of length <= d to states that follows the
relations edge by edge.  Counts and truth values must match what the stratum
construction produces.
"""

import itertools

import pytest

from topodyn import transform
from topodyn.checker import eval_pdl_relational
from topodyn.formula import Language, format_formula, modal_depth, parse
from topodyn.harness import GenConfig, gen_formula, gen_model, _derived_rng
from topodyn.models import PDLModel, SubsetModel, model_from_json, validate
from topodyn.transform import (
    BudgetExceeded,
    DepthExceeded,
    NonSerialModel,
    build_network_space,
    check_shift_openness,
    check_truth_preservation,
    network_extension,
    network_space_to_json,
    stratum_counts,
)
from topodyn.topology import iter_points


# --- the oracle -------------------------------------------------------------------


def enumerate_labelings(model: PDLModel, depth: int):
    """All edge-respecting assignments of states to words of length <= depth."""
    k = len(model.alphabet)
    words = [()]
    for length in range(1, depth + 1):
        words.extend(itertools.product(range(k), repeat=length))

    def extend(i, assigned):
        if i == len(words):
            yield dict(assigned)
            return
        w = words[i]
        parent = assigned[w[:-1]]
        succ = model.rel[model.alphabet[w[-1]]][parent]
        for y in iter_points(succ):
            assigned[w] = y
            yield from extend(i + 1, assigned)
            del assigned[w]

    for x in range(model.n):
        yield from extend(1, {(): x})


def key(labelling):
    """A labelling as a hashable, sortable value: its (word, state) pairs in
    word order, the root's first."""
    return tuple(sorted(labelling.items()))


def oracle_by_root(model: PDLModel, depth: int):
    """Per root, the keys of its labellings."""
    runs = [[] for _ in range(model.n)]
    for lab in enumerate_labelings(model, depth):
        runs[lab[()]].append(key(lab))
    return runs


def oracle_counts_by_root(model: PDLModel, depth: int):
    return [len(run) for run in oracle_by_root(model, depth)]


def assert_runs_are_the_oracles(model: PDLModel, depth: int, runs):
    """Each root's run lists exactly that root's labellings, each once."""
    want = oracle_by_root(model, depth)
    assert len(runs) == len(want)
    for run, labs in zip(runs, want):
        assert len(set(run)) == len(run) and sorted(run) == sorted(labs)


def read_networks(space):
    """Every network as a word labelling, per stratum in index order, read
    straight off the tables: its root from ``spans``, and under program p the
    labelling of the network one stratum down that its ``shift_index`` row
    names."""
    strata = []
    for d, by_root in enumerate(space.spans):
        roots = [x for x, span in enumerate(by_root) for _ in span]
        # the runs, roots ascending, are the stratum's indices in order
        assert [i for span in by_root for i in span] == list(range(len(roots)))
        rows = space.shift_index[d] if d else [()] * len(roots)
        assert len(rows) == len(roots)
        stratum = []
        for x, row in zip(roots, rows):
            lab = {(): x}
            for p, j in enumerate(row):
                lab.update(((p,) + w, y) for w, y in strata[d - 1][j].items())
            stratum.append(lab)
        strata.append(stratum)
    return strata


TOTAL2 = PDLModel(2, ("a",), {"a": (0b11, 0b11)}, {"p": 0b01}, serial_flag=True)
UNEVEN3 = PDLModel(3, ("a", "b"), {"a": (0b010, 0b011, 0b011), "b": (0b001, 0b100, 0b110)},
                   {"p": 0b011, "q": 0b100}, serial_flag=True)


# --- counts -----------------------------------------------------------------------


def test_single_self_loop_counts():
    m = PDLModel(1, ("a",), {"a": (0b1,)}, {}, serial_flag=True)
    assert stratum_counts(m, 3) == [[1], [1], [1], [1]]


def test_two_point_total_relation_counts():
    assert stratum_counts(TOTAL2, 1) == [[1, 1], [2, 2]]
    assert stratum_counts(TOTAL2, 2) == [[1, 1], [2, 2], [4, 4]]
    space = build_network_space(TOTAL2, 1)
    assert space.stratum_sizes() == [2, 4]


def test_identity_relation_counts():
    m = PDLModel(2, ("a",), {"a": (0b01, 0b10)}, {}, serial_flag=True)
    assert stratum_counts(m, 4)[4] == [1, 1]


def test_counts_match_labeling_oracle_exhaustively():
    # every serial one-program relation on two states, depths 1 and 2
    for s0 in range(1, 4):
        for s1 in range(1, 4):
            m = PDLModel(2, ("a",), {"a": (s0, s1)}, {}, serial_flag=True)
            for depth in (1, 2):
                want = oracle_counts_by_root(m, depth)
                assert stratum_counts(m, depth)[depth] == want
                space = build_network_space(m, depth)
                got = [0] * m.n
                for lab in read_networks(space)[depth]:
                    got[lab[()]] += 1
                assert got == want


def test_counts_match_labeling_oracle_generated():
    for i in range(30):
        m = gen_model(GenConfig(seed=300, max_points=3, num_programs=2, model_class="pdl_serial"), index=i)
        assert stratum_counts(m, 2)[2] == oracle_counts_by_root(m, 2)


def test_networks_are_edge_respecting():
    for model in (TOTAL2, UNEVEN3):
        space = build_network_space(model, 2)
        for lab in read_networks(space)[2]:
            assert len(lab) == 1 + len(model.alphabet) + len(model.alphabet) ** 2
            for w, y in lab.items():
                if w:
                    assert model.rel[model.alphabet[w[-1]]][lab[w[:-1]]] >> y & 1


def test_networks_are_distinct():
    space = build_network_space(TOTAL2, 2)
    for stratum in read_networks(space):
        keys = [key(lab) for lab in stratum]
        assert len(set(keys)) == len(keys)


# --- semantics ---------------------------------------------------------------------


def test_atom_truth_is_root_truth():
    space = build_network_space(TOTAL2, 2)
    f = parse("p")
    for d in range(3):
        ext = network_extension(space, f, d)
        for x, span in enumerate(space.spans[d]):
            for i in span:
                assert bool(ext >> i & 1) == bool(TOTAL2.val["p"] >> x & 1)


def test_modal_truth_matches_source_truth():
    # <a>p and [a]p on the total relation: both live everywhere / somewhere
    space = build_network_space(TOTAL2, 2)
    dia = parse("<a>p")
    box = parse("[a]p")
    src_dia = eval_pdl_relational(TOTAL2, dia)
    src_box = eval_pdl_relational(TOTAL2, box)
    assert src_dia == 0b11 and src_box == 0
    for d in (1, 2):
        dia_ext, box_ext = network_extension(space, dia, d), network_extension(space, box, d)
        for x, span in enumerate(space.spans[d]):
            for i in span:
                assert bool(dia_ext >> i & 1) == bool(src_dia >> x & 1)
                assert bool(box_ext >> i & 1) == bool(src_box >> x & 1)


def test_truth_preservation_generated_models():
    for i in range(40):
        m = gen_model(GenConfig(seed=301, max_points=4, num_programs=2, model_class="pdl_serial"), index=i)
        rng = _derived_rng(301, 1, i)
        formulas = [
            gen_formula(rng, ("p", "q"), m.alphabet, modal_budget=2, size_budget=5,
                        lang=Language.PDL, allow_seq=False)
            for _ in range(8)
        ]
        report = check_truth_preservation(m, formulas, depth=2, budget=200_000)
        assert report.ok
        # one comparison per (formula, deepest-stratum network) pair
        assert report.checked == 8 * sum(stratum_counts(m, 2)[2])


def test_preservation_holds_at_intermediate_strata():
    space = build_network_space(TOTAL2, 2)
    f = parse("<a>(p & <a>~p)")
    src = eval_pdl_relational(TOTAL2, f)
    assert src == 0b11
    assert network_extension(space, f, 2) == (1 << space.size(2)) - 1


def test_shift_openness_small_models():
    for i in range(40):
        m = gen_model(GenConfig(seed=302, max_points=4, num_programs=2, model_class="pdl_serial"), index=i)
        space = build_network_space(m, 2, budget=200_000)
        assert check_shift_openness(space) == []


def test_shift_image_of_cell_by_hand():
    # stratum 1 of the total model: the root-0 cell shifts onto all of stratum 0
    space = build_network_space(TOTAL2, 1)
    got = 0
    for i in space.spans[1][0]:
        got |= 1 << space.shift_index[1][i][0]
    assert got == 0b11


# --- errors ------------------------------------------------------------------------


def test_non_serial_model_is_rejected():
    m = PDLModel(2, ("a",), {"a": (0b10, 0)}, {}, serial_flag=False)
    with pytest.raises(NonSerialModel, match="serial"):
        stratum_counts(m, 1)
    with pytest.raises(NonSerialModel):
        build_network_space(m, 1)


def test_budget_is_checked_before_enumeration():
    with pytest.raises(BudgetExceeded, match="stratum"):
        build_network_space(TOTAL2, 2, budget=3)


def test_depth_exceeded():
    space = build_network_space(TOTAL2, 1)
    with pytest.raises(DepthExceeded, match="depth"):
        network_extension(space, parse("<a><a>p"), 1)
    with pytest.raises(DepthExceeded):
        network_extension(space, parse("<a>p"), 0)


def test_seq_programs_are_rejected():
    space = build_network_space(TOTAL2, 2)
    with pytest.raises(ValueError, match="atomic"):
        network_extension(space, parse("<a;a>p"), 2)


def test_the_whole_list_is_checked_before_either_walk():
    # each first formula would fail its walk (an unknown program on the
    # source model, a sequence on the networks); the list's language or
    # depth error is raised first, and neither walk runs; the source walk
    # reads the whole list before the network walk starts
    space = build_network_space(TOTAL2, 2)
    for first in ("<c>p", "<a;a>p"):
        with pytest.raises(ValueError, match="relational formulas only"):
            check_truth_preservation(TOTAL2, [parse(first), parse("box p")], 2, space=space)
        with pytest.raises(DepthExceeded, match="needs depth 3"):
            check_truth_preservation(TOTAL2, [parse(first), parse("<a><a><a>p")], 2, space=space)
    with pytest.raises(ValueError, match="unknown program 'c'"):
        check_truth_preservation(TOTAL2, [parse("<a;a>p"), parse("<c>p")], 2, space=space)


# --- JSON --------------------------------------------------------------------------


def test_network_space_json_is_a_valid_subset_model():
    space = build_network_space(TOTAL2, 1)
    obj = network_space_to_json(space)
    assert obj["type"] == "subset"
    assert obj["source_points"] == 2
    loaded = model_from_json(obj)
    assert isinstance(loaded, SubsetModel)
    assert validate(loaded) == []
    # six points: two depth-0 networks then four depth-1 networks
    assert loaded.space.n == 6
    # the shift is undefined exactly on stratum 0
    assert loaded.fn["a"][0] is None and loaded.fn["a"][1] is None
    assert all(y is not None for y in loaded.fn["a"][2:])


def test_network_space_json_strata_annotation():
    space = build_network_space(TOTAL2, 1)
    obj = network_space_to_json(space)
    depths = [s["depth"] for s in obj["strata"]]
    assert depths == [0, 1]
    assert [len(s["roots"]) for s in obj["strata"]] == [2, 4]


SMALL_MODELS = pytest.mark.parametrize("model", [
    *(gen_model(GenConfig(seed=45, max_points=3, num_programs=2, model_class="pdl_serial"), i)
      for i in range(6)),
    PDLModel(2, (), {}, {"p": 0b01}, serial_flag=True),
], ids=[*(f"generated-{i}" for i in range(6)), "no-programs"])


@SMALL_MODELS
def test_shift_index_and_spans_match_the_oracle(model):
    space = build_network_space(model, 3)
    for d, stratum in enumerate(read_networks(space)):
        runs = [[key(stratum[i]) for i in span] for span in space.spans[d]]
        assert_runs_are_the_oracles(model, d, runs)


@SMALL_MODELS
def test_network_space_json_rebuilds_every_network(model):
    space = build_network_space(model, 3)
    doc = network_space_to_json(space)
    maps = [doc["programs"][name]["map"] for name in model.alphabet]
    roots = [x for stratum in doc["strata"] for x in stratum["roots"]]

    def labelling(point):
        # a network is its root plus, per program, the network its shift lands on
        lab = {(): roots[point]}
        for p, m in enumerate(maps):
            if m[point] is not None:
                lab.update(((p,) + w, y) for w, y in labelling(m[point]).items())
        return lab

    for d, stratum in enumerate(doc["strata"]):
        assert stratum["roots"] == sorted(stratum["roots"])
        got = [key(labelling(i)) for i in stratum["points"]]
        assert_runs_are_the_oracles(model, d, [[k for k in got if k[0] == ((), x)]
                                               for x in range(model.n)])


def test_truth_preservation_accepts_a_prebuilt_space():
    m = gen_model(TRANSFORM_CFG_SMALL, 4)
    formulas = [parse("<a>p -> [b]q"), parse("[a][b]p | <b>~q")]
    space = build_network_space(m, 2)
    with_space = check_truth_preservation(m, formulas, 2, space=space)
    assert with_space == check_truth_preservation(m, formulas, 2)
    assert with_space.ok and with_space.checked == 2 * space.size(2)


TRANSFORM_CFG_SMALL = GenConfig(seed=44, max_points=3, num_programs=2, model_class="pdl_serial")


def test_modalities_on_strata_past_a_machine_word():
    m = PDLModel(4, ("a",), {"a": (0b1111,) * 4}, {"p": 0b0101}, serial_flag=True)
    space = build_network_space(m, 6)
    assert space.stratum_sizes() == [4 ** (d + 1) for d in range(7)]
    for text in ("<a>p", "[a]p", "<a>[a]~p"):
        f = parse(text)
        src = eval_pdl_relational(m, f)
        for d in range(modal_depth(f), 7):
            assert network_extension(space, f, d) == space.lift(src, d)


def shifts_by_subtree(networks, d, p):
    """Per network of stratum d, the index one stratum down of its shift
    along program p: the network labelled as its words under p are."""
    below = {key(lab): j for j, lab in enumerate(networks[d - 1])}
    return [below[key({w[1:]: y for w, y in lab.items() if w[:1] == (p,)})]
            for lab in networks[d]]


def modal_by_members(roots, shifts, box, body):
    """``[a]`` (box) or ``<a>`` from its definition, network by network: a
    network passes when every (some) network with its root shifts into body."""
    into = {}  # root -> whether each network with that root shifts into body
    for x, j in zip(roots, shifts):
        into.setdefault(x, []).append(body >> j & 1)
    passes = {x: (all if box else any)(bits) for x, bits in into.items()}
    return sum(1 << i for i, x in enumerate(roots) if passes[x])


def test_modalities_read_each_cells_shift_image():
    rng = _derived_rng(29)
    spaces = [build_network_space(gen_model(GenConfig(
        seed=303, max_points=4, num_programs=2, model_class="pdl_serial"), i), 2) for i in range(40)]
    big = PDLModel(4, ("a",), {"a": (0b1111,) * 4}, {"p": 0b0101}, serial_flag=True)
    spaces.append(build_network_space(big, 6))
    assert spaces[-1].size(6) == 4 ** 7
    for space in spaces:
        assert check_shift_openness(space) == []
        n = space.source.n
        networks = read_networks(space)
        for d in range(1, space.depth + 1):
            roots = [lab[()] for lab in networks[d]]
            size = space.size(d - 1)
            # dense, sparse and cell-aligned bodies, so that both outcomes occur
            cells = space.lift(rng.getrandbits(n), d - 1)
            bodies = [0, space.full(d - 1), rng.getrandbits(size),
                      rng.getrandbits(size) & rng.getrandbits(size),
                      rng.getrandbits(size) | rng.getrandbits(size),
                      cells, cells ^ 1 << rng.randrange(size)]
            for p, name in enumerate(space.source.alphabet):
                shifts = shifts_by_subtree(networks, d, p)
                for body in bodies:
                    for text, box in ((f"<{name}>p", False), (f"[{name}]p", True)):
                        got = space.modal(parse(text), body, d)
                        assert got == modal_by_members(roots, shifts, box, body), (text, d)


def test_disagreements_are_the_networks_whose_truth_differs(monkeypatch):
    m = UNEVEN3
    formulas = [parse("<a>p -> [b]q"), parse("[a][b]p | <b>~q")]
    space = build_network_space(m, 2)
    assert check_truth_preservation(m, formulas, 2, space=space).ok
    # the flips below name networks 0, 1, 2 and the last, which must be real ones
    assert space.size(2) >= 4
    last = space.size(2) - 1
    flips = {formulas[0]: 1 | 1 << last, formulas[1]: 0b110}
    exact = transform.evaluate_all

    def flipped(fs, sem, ctx=0):  # the list walk, with the network side's bits flipped
        exts = exact(fs, sem, ctx)
        return [ext ^ flips[f] for f, ext in zip(fs, exts)] if sem is space else exts

    monkeypatch.setattr(transform, "evaluate_all", flipped)
    report = check_truth_preservation(m, formulas, 2, space=space)
    # the definition, network by network: its truth against its root's, the
    # root the printed space gives for point index of stratum depth
    strata = network_space_to_json(space)["strata"]
    want = []
    for f in formulas:
        source_ext = eval_pdl_relational(m, f)
        net_ext = transform.evaluate_all([f], space, 2)[0]
        for i, root in enumerate(strata[2]["roots"]):
            src, lifted = bool(source_ext >> root & 1), bool(net_ext >> i & 1)
            if src != lifted:
                want.append({"formula": format_formula(f), "depth": 2, "index": i, "root": root,
                             "source": src, "network_truth": lifted})
    assert list(report.disagreements) == want
    assert [(e["formula"], e["index"]) for e in want] == [
        (format_formula(formulas[0]), 0), (format_formula(formulas[0]), last),
        (format_formula(formulas[1]), 1), (format_formula(formulas[1]), 2),
    ]
    for e in report.disagreements:
        assert e["root"] == strata[e["depth"]]["roots"][e["index"]]
    assert report.checked == 2 * space.size(2)
