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
    BoundedNetwork,
    BudgetExceeded,
    DepthExceeded,
    NonSerialModel,
    build_network_space,
    check_shift_openness,
    check_truth_preservation,
    eval_network,
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


def oracle_counts_by_root(model: PDLModel, depth: int):
    counts = [0] * model.n
    for lab in enumerate_labelings(model, depth):
        counts[lab[()]] += 1
    return counts


def derived_tables(space):
    """``shift_index`` and ``spans`` recomputed from the strata alone: every
    child is looked up by value one stratum down, and each root's networks
    are listed by index."""
    index = [{net: i for i, net in enumerate(stratum)} for stratum in space.strata]
    shift_index = [()]
    for d in range(1, len(space.strata)):
        shift_index.append(tuple(
            tuple(index[d - 1][child] for child in net.children) for net in space.strata[d]
        ))
    spans = tuple(
        tuple(tuple(i for i, net in enumerate(stratum) if net.root == x)
              for x in range(space.source.n))
        for stratum in space.strata
    )
    return tuple(shift_index), spans


TOTAL2 = PDLModel(2, ("a",), {"a": (0b11, 0b11)}, {"p": 0b01}, serial_flag=True)


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
                for net in space.strata[depth]:
                    got[net.root] += 1
                assert got == want


def test_counts_match_labeling_oracle_generated():
    for i in range(30):
        m = gen_model(GenConfig(seed=300, max_points=3, num_programs=2, model_class="pdl_serial"), index=i)
        assert stratum_counts(m, 2)[2] == oracle_counts_by_root(m, 2)


def test_networks_are_edge_respecting():
    space = build_network_space(TOTAL2, 2)
    for net in space.strata[2]:
        for p, name in enumerate(TOTAL2.alphabet):
            for w in [(), (p,)]:
                parent = net.label(w)
                child = net.label(w + (p,))
                assert TOTAL2.rel[name][parent] >> child & 1


def test_networks_are_distinct():
    space = build_network_space(TOTAL2, 2)
    for stratum in space.strata:
        assert len(set(stratum)) == len(stratum)


# --- semantics ---------------------------------------------------------------------


def test_atom_truth_is_root_truth():
    space = build_network_space(TOTAL2, 2)
    f = parse("p")
    for d in range(3):
        for net in space.strata[d]:
            assert eval_network(space, f, net) == bool(TOTAL2.val["p"] >> net.root & 1)


def test_modal_truth_matches_source_truth():
    # <a>p and [a]p on the total relation: both live everywhere / somewhere
    space = build_network_space(TOTAL2, 2)
    dia = parse("<a>p")
    box = parse("[a]p")
    src_dia = eval_pdl_relational(TOTAL2, dia)
    src_box = eval_pdl_relational(TOTAL2, box)
    assert src_dia == 0b11 and src_box == 0
    for d in (1, 2):
        for net in space.strata[d]:
            assert eval_network(space, dia, net) == bool(src_dia >> net.root & 1)
            assert eval_network(space, box, net) == bool(src_box >> net.root & 1)


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
    assert network_extension(space, f, 2) == (1 << len(space.strata[2])) - 1


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
        got |= 1 << space.shift(1, 0, i)
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
        eval_network(space, parse("<a>p"), space.strata[0][0])


def test_seq_programs_are_rejected():
    space = build_network_space(TOTAL2, 2)
    with pytest.raises(ValueError, match="atomic"):
        network_extension(space, parse("<a;a>p"), 2)


def test_foreign_network_is_rejected():
    space = build_network_space(TOTAL2, 1)
    with pytest.raises(ValueError, match="belong"):
        eval_network(space, parse("p"), BoundedNetwork(5, ()))
    # deeper than the space
    deep = BoundedNetwork(0, (BoundedNetwork(0, (BoundedNetwork(0, ()),)),))
    with pytest.raises(ValueError, match="belong"):
        eval_network(space, parse("p"), deep)


def test_networks_are_found_by_value():
    space = build_network_space(TOTAL2, 2)

    def rebuild(net):
        return BoundedNetwork(net.root, tuple(rebuild(c) for c in net.children))

    for i, net in enumerate(space.strata[2]):
        copy = rebuild(net)
        assert copy is not net and copy == net and hash(copy) == hash(net)
        assert space.index[2][copy] == i


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
def test_shift_index_and_cells_match_the_strata(model):
    space = build_network_space(model, 3)
    # each span, as the tuple of its indices: a root's networks are one run
    spans = tuple(tuple(tuple(span) for span in by_root) for by_root in space.spans)
    assert (space.shift_index, spans) == derived_tables(space)


@SMALL_MODELS
def test_network_space_json_rebuilds_every_network(model):
    space = build_network_space(model, 3)
    doc = network_space_to_json(space)
    maps = {name: doc["programs"][name]["map"] for name in model.alphabet}
    roots = [x for stratum in doc["strata"] for x in stratum["roots"]]

    def network(point):
        # a network is its root plus, per program, the network its shift lands on
        out = {"root": roots[point]}
        children = {name: network(m[point]) for name, m in maps.items() if m[point] is not None}
        if children:
            out["children"] = children
        return out

    for d, stratum in enumerate(space.strata):
        points = doc["strata"][d]["points"]
        assert [network(i) for i in points] == [net.to_json(model.alphabet) for net in stratum]


def test_truth_preservation_accepts_a_prebuilt_space():
    m = gen_model(TRANSFORM_CFG_SMALL, 4)
    formulas = [parse("<a>p -> [b]q"), parse("[a][b]p | <b>~q")]
    space = build_network_space(m, 2)
    with_space = check_truth_preservation(m, formulas, 2, space=space)
    assert with_space == check_truth_preservation(m, formulas, 2)
    assert with_space.ok and with_space.checked == 2 * len(space.strata[2])


TRANSFORM_CFG_SMALL = GenConfig(seed=44, max_points=3, num_programs=2, model_class="pdl_serial")


def test_the_space_builds_no_trees_unless_read():
    m = gen_model(TRANSFORM_CFG_SMALL, 4)
    formulas = [parse("<a>p -> [b]q"), parse("[a][b]p | <b>~q")]
    space = build_network_space(m, 2)
    network_space_to_json(space)
    network_extension(space, formulas[1], 2)
    assert check_truth_preservation(m, formulas, 2, space=space).ok
    assert "strata" not in vars(space)


def test_modalities_on_strata_past_a_machine_word():
    m = PDLModel(4, ("a",), {"a": (0b1111,) * 4}, {"p": 0b0101}, serial_flag=True)
    space = build_network_space(m, 6)
    assert space.stratum_sizes() == [4 ** (d + 1) for d in range(7)]
    for text in ("<a>p", "[a]p", "<a>[a]~p"):
        f = parse(text)
        src = eval_pdl_relational(m, f)
        for d in range(modal_depth(f), 7):
            assert network_extension(space, f, d) == space.lift(src, d)


def modal_by_members(space, box, p, body, d):
    """``[a]`` (box) or ``<a>`` on stratum d from its definition, network by
    network: a network passes when every (some) network with its root
    shifts along program p into body."""
    nets = space.strata[d]
    into = {}  # root -> whether each network with that root shifts into body
    for i, net in enumerate(nets):
        into.setdefault(net.root, []).append(body >> space.shift(d, p, i) & 1)
    passes = {x: (all if box else any)(bits) for x, bits in into.items()}
    return sum(1 << i for i, net in enumerate(nets) if passes[net.root])


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
        for d in range(1, space.depth + 1):
            size = space.size(d - 1)
            # dense, sparse and cell-aligned bodies, so that both outcomes occur
            cells = space.lift(rng.getrandbits(n), d - 1)
            bodies = [0, space.full(d - 1), rng.getrandbits(size),
                      rng.getrandbits(size) & rng.getrandbits(size),
                      rng.getrandbits(size) | rng.getrandbits(size),
                      cells, cells ^ 1 << rng.randrange(size)]
            for p, name in enumerate(space.source.alphabet):
                for body in bodies:
                    for text, box in ((f"<{name}>p", False), (f"[{name}]p", True)):
                        got = space.modal(parse(text), body, d)
                        assert got == modal_by_members(space, box, p, body, d), (text, d)


def test_disagreements_are_the_networks_whose_truth_differs(monkeypatch):
    m = PDLModel(3, ("a", "b"), {"a": (0b010, 0b011, 0b011), "b": (0b001, 0b100, 0b110)},
                 {"p": 0b011, "q": 0b100}, serial_flag=True)
    formulas = [parse("<a>p -> [b]q"), parse("[a][b]p | <b>~q")]
    space = build_network_space(m, 2)
    assert check_truth_preservation(m, formulas, 2, space=space).ok
    # the flips below name networks 1, 2 and the last, which must be real ones
    assert len(space.strata[2]) >= 3
    last = len(space.strata[2]) - 1
    flips = {formulas[0]: 1 | 1 << last, formulas[1]: 0b110}
    exact = transform.network_extension
    monkeypatch.setattr(transform, "network_extension",
                        lambda space, f, d: exact(space, f, d) ^ flips[f])
    report = check_truth_preservation(m, formulas, 2, space=space)
    # the definition, network by network: its truth against its root's
    want = []
    for f in formulas:
        source_ext = eval_pdl_relational(m, f)
        net_ext = transform.network_extension(space, f, 2)
        for i, net in enumerate(space.strata[2]):
            src, lifted = bool(source_ext >> net.root & 1), bool(net_ext >> i & 1)
            if src != lifted:
                want.append({"formula": format_formula(f), "root": net.root,
                             "network": net.to_json(m.alphabet),
                             "source": src, "network_truth": lifted})
    assert len(want) == 4 and list(report.disagreements) == want
    assert report.checked == 2 * len(space.strata[2])
