"""Bounded execution-network spaces for serial relational models.

A depth-d network over a model assigns a state to every program word of
length at most d so that each one-step extension follows the corresponding
relation.  Stratum d carries the partition topology whose cells group
networks by their root state; the shift along a program sends a network to
the subtree under that program, landing one stratum down.  Truth of a
relational formula at a state then matches truth at every network rooted
there, with the relational modalities read through closure/interior of shift
preimages, which on a partition boil down to exists/forall over cell mates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .checker import eval_pdl_relational, evaluate
from .formula import (
    MAX_NESTING,
    Atomic,
    BoxPdl,
    Diamond,
    Formula,
    Language,
    Node,
    format_formula,
    in_language,
    modal_depth,
)
from .frameprops import is_serial
from .models import PDLModel
from .topology import iter_points


class NonSerialModel(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


class DepthExceeded(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class BoundedNetwork:
    root: int
    children: tuple["BoundedNetwork", ...]  # one per program, alphabet order

    @property
    def depth(self) -> int:
        return 0 if not self.children else 1 + self.children[0].depth

    def label(self, word: Sequence[int]) -> int:
        """State assigned to a program word, given as alphabet indices."""
        node = self
        for i in word:
            node = node.children[i]
        return node.root

    def to_json(self, alphabet: Sequence[str]) -> dict:
        out: dict = {"root": self.root}
        if self.children:
            out["children"] = {
                name: child.to_json(alphabet)
                for name, child in zip(alphabet, self.children)
            }
        return out


@dataclass(eq=False)
class NetworkSpace:
    source: PDLModel
    depth: int
    strata: tuple[tuple[BoundedNetwork, ...], ...]
    # per stratum and network: the index one stratum down of its shift along
    # each program (stratum 0 has no shifts)
    shift_index: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)
    cells: tuple[dict[int, int], ...] = field(repr=False)  # root -> its networks

    @cached_property
    def index(self) -> tuple[dict[BoundedNetwork, int], ...]:
        return tuple({net: i for i, net in enumerate(stratum)} for stratum in self.strata)

    def stratum_sizes(self) -> list[int]:
        return [len(s) for s in self.strata]

    def shift(self, d: int, prog_index: int, i: int) -> int:
        """Index in stratum d-1 of the shift of network i of stratum d."""
        return self.shift_index[d][i][prog_index]

    # the network semantics checker.evaluate reads; a node's context is its stratum

    shifts = frozenset({Diamond, BoxPdl})

    def full(self, d: int) -> int:
        return (1 << len(self.strata[d])) - 1

    def lift(self, states: int, d: int) -> int:
        """The networks of stratum d rooted at the given source states."""
        m = 0
        for x in iter_points(states):
            m |= self.cells[d].get(x, 0)
        return m

    def atom(self, node: Node, d: int) -> int:
        return self.lift(self.source.val.get(node.name, 0), d)

    def step(self, node: Node, d: int) -> int:
        if type(node.prog) is not Atomic:
            raise ValueError(
                f"network semantics treats programs as atomic: {format_formula(node)}"
            )
        return d - 1

    def modal(self, node: Node, body: int, d: int) -> int:
        if type(node) is not Diamond and type(node) is not BoxPdl:
            raise ValueError(f"no network semantics for {format_formula(node)}")
        p = self.source.alphabet.index(node.prog.name)
        shifts = self.shift_index[d]
        m = 0
        # closure/interior of a shift preimage on a partition topology:
        # a cell passes if some (dually, every) member shifts into the body
        for cell in self.cells[d].values():
            members = list(iter_points(cell))
            hits = sum(1 for i in members if body >> shifts[i][p] & 1)
            if hits > 0 if type(node) is Diamond else hits == len(members):
                m |= cell
        return m


def stratum_counts(model: PDLModel, depth: int) -> list[list[int]]:
    """Network counts by (depth, root) from the product recurrence."""
    serial = is_serial(model)
    if not serial.holds:
        w = serial.witness
        raise NonSerialModel(
            f"program {w.program!r} has no successor at state {w.point}; "
            "networks need a serial model"
        )
    counts = [[1] * model.n]
    for _ in range(depth):
        prev = counts[-1]
        row = []
        for x in range(model.n):
            total = 1
            for name in model.alphabet:
                total *= sum(prev[y] for y in iter_points(model.rel[name][x]))
            row.append(total)
        counts.append(row)
    return counts


def build_network_space(model: PDLModel, depth: int, budget: int = 100_000) -> NetworkSpace:
    """Enumerate all bounded networks up to the given depth.

    Raises ValueError for a depth outside 0..MAX_NESTING (no formula the
    parser accepts needs more strata), and BudgetExceeded (with the computed
    size) before enumerating if any stratum would outgrow the budget.
    """
    if not 0 <= depth <= MAX_NESTING:
        raise ValueError(f"depth must be between 0 and {MAX_NESTING}, not {depth}")
    counts = stratum_counts(model, depth)
    for d, row in enumerate(counts):
        size = sum(row)
        if size > budget:
            raise BudgetExceeded(
                f"stratum {d} holds {size} networks, over the budget of {budget}"
            )
    strata = [tuple(BoundedNetwork(x, ()) for x in range(model.n))]
    shift_index: list[tuple[tuple[int, ...], ...]] = [()]
    # per stratum, each root's networks: they are contiguous, roots ascending
    spans = [[range(x, x + 1) for x in range(model.n)]]
    for _ in range(depth):
        below, below_spans = strata[-1], spans[-1]
        nets, rows, root_spans = [], [], []
        for x in range(model.n):
            start = len(rows)
            # along each program, any network one stratum down rooted at a successor
            for row in itertools.product(*(
                [i for y in iter_points(model.rel[name][x]) for i in below_spans[y]]
                for name in model.alphabet
            )):
                rows.append(row)
                nets.append(BoundedNetwork(x, tuple(below[i] for i in row)))
            root_spans.append(range(start, len(rows)))
        strata.append(tuple(nets))
        shift_index.append(tuple(rows))
        spans.append(root_spans)
    cells = tuple({x: (1 << len(s)) - 1 << s.start for x, s in enumerate(by_root)}
                  for by_root in spans)
    return NetworkSpace(model, depth, tuple(strata), tuple(shift_index), cells)


def network_extension(space: NetworkSpace, f: Formula, d: int) -> int:
    """Bitmask over stratum d of the networks satisfying f.

    Needs modal_depth(f) <= d: each relational modality consumes one stratum.
    """
    if modal_depth(f) > d:
        raise DepthExceeded(
            f"formula needs depth {modal_depth(f)} but stratum {d} was requested"
        )
    return evaluate(f, space, d)


def eval_network(space: NetworkSpace, f: Formula, net: BoundedNetwork) -> bool:
    d = net.depth
    i = space.index[d].get(net)
    if i is None:
        raise ValueError("network does not belong to this space")
    return bool(network_extension(space, f, d) >> i & 1)


def check_shift_openness(space: NetworkSpace) -> list[dict]:
    """Shift images of basis cells must be unions of cells one stratum down:
    the image of the cell of root x is exactly the union of the cells of the
    relational successors of x."""
    failures = []
    for d in range(1, space.depth + 1):
        shifts = space.shift_index[d]
        for p, name in enumerate(space.source.alphabet):
            for x, cell in space.cells[d].items():
                got = 0
                for i in iter_points(cell):
                    got |= 1 << shifts[i][p]
                want = 0
                for y in iter_points(space.source.rel[name][x]):
                    want |= space.cells[d - 1].get(y, 0)
                if got != want:
                    failures.append(
                        {"depth": d, "program": name, "root": x}
                    )
    return failures


@dataclass(frozen=True)
class PreservationReport:
    checked: int
    disagreements: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "disagreements": list(self.disagreements),
        }


def check_truth_preservation(
    model: PDLModel,
    formulas: Iterable[Formula],
    depth: int,
    budget: int = 100_000,
    space: Optional[NetworkSpace] = None,
) -> PreservationReport:
    """Compare source truth with network truth at every deepest-stratum
    network, for each formula: the networks that disagree are the bits where
    f's network extension differs from the union of the cells of the roots
    where f holds in the source.  Pass ``space`` to reuse a space already
    built from the same model and depth."""
    if space is None:
        space = build_network_space(model, depth, budget)
    checked = 0
    disagreements: list[dict] = []
    for f in formulas:
        if not in_language(f, Language.PDL):
            raise ValueError(f"networks interpret relational formulas only: {format_formula(f)}")
        if modal_depth(f) > depth:
            raise DepthExceeded(
                f"formula {format_formula(f)} needs depth {modal_depth(f)}, space has {depth}"
            )
        source_ext = eval_pdl_relational(model, f)
        net_ext = network_extension(space, f, depth)
        checked += len(space.strata[depth])
        for i in iter_points(space.lift(source_ext, depth) ^ net_ext):
            net = space.strata[depth][i]
            src = bool(source_ext >> net.root & 1)
            disagreements.append({"formula": format_formula(f), "root": net.root,
                                  "network": net.to_json(model.alphabet),
                                  "source": src, "network_truth": not src})
    return PreservationReport(checked=checked, disagreements=tuple(disagreements))


def network_space_to_json(space: NetworkSpace) -> dict:
    """Emit the space as a subset-space model JSON: points are all networks,
    opens are generated by the root cells, shifts are partial maps, undefined
    on stratum 0.

    Each network's ``to_json`` dict is built once, bottom-up, and every
    parent one stratum up holds that same dict as a child, so the returned
    document shares its network dicts: callers must not mutate them."""
    model = space.source
    networks = [[net.to_json(model.alphabet) for net in space.strata[0]]]
    for d in range(1, space.depth + 1):
        below = networks[-1]
        stratum = []
        for net, shifts in zip(space.strata[d], space.shift_index[d]):
            out: dict = {"root": net.root}
            if shifts:
                out["children"] = {
                    name: below[j] for name, j in zip(model.alphabet, shifts)
                }
            stratum.append(out)
        networks.append(stratum)
    offsets = []
    total = 0
    for stratum in space.strata:
        offsets.append(total)
        total += len(stratum)
    cells = []
    for d in range(space.depth + 1):
        for x in sorted(space.cells[d]):
            cells.append(
                [offsets[d] + i for i in iter_points(space.cells[d][x])]
            )
    maps: dict[str, list] = {}
    for p, name in enumerate(model.alphabet):
        table: list[int | None] = [None] * total
        for d in range(1, space.depth + 1):
            for i in range(len(space.strata[d])):
                table[offsets[d] + i] = offsets[d - 1] + space.shift_index[d][i][p]
        maps[name] = table
    valuation = {}
    for atom, v in sorted(model.val.items()):
        pts = []
        for d in range(space.depth + 1):
            for x in iter_points(v):
                pts.extend(offsets[d] + i for i in iter_points(space.cells[d].get(x, 0)))
        valuation[atom] = sorted(pts)
    return {
        "type": "subset",
        "space": {"points": total, "subbasis": cells},
        "programs": {name: {"map": maps[name]} for name in model.alphabet},
        "valuation": valuation,
        "strata": [
            {
                "depth": d,
                "points": list(range(offsets[d], offsets[d] + len(space.strata[d]))),
                "networks": networks[d],
            }
            for d in range(space.depth + 1)
        ],
        "source_points": model.n,
    }
