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
from typing import Iterable, Optional

from .checker import eval_pdl_relational_all, evaluate, evaluate_all
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


@dataclass(eq=False)
class NetworkSpace:
    source: PDLModel
    depth: int
    # per stratum and network: the index one stratum down of its shift along
    # each program (stratum 0 has no shifts)
    shift_index: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)
    # per stratum and root: that root's networks, a contiguous run (roots ascending)
    spans: tuple[tuple[range, ...], ...] = field(repr=False)

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Per stratum and root: the mask of that root's cell, its networks."""
        return tuple(tuple((1 << len(span)) - 1 << span.start for span in by_root)
                     for by_root in self.spans)

    @cached_property
    def images(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per stratum d, program and root: the mask over stratum d-1 of the
        shift image of that root's cell, read off the shift table (stratum 0
        has none)."""
        out: list[tuple[tuple[int, ...], ...]] = [()]
        for rows, by_root in zip(self.shift_index[1:], self.spans[1:]):
            per_program = []
            for p in range(len(self.source.alphabet)):
                per_root = []
                for span in by_root:
                    img = 0
                    for i in span:
                        img |= 1 << rows[i][p]
                    per_root.append(img)
                per_program.append(tuple(per_root))
            out.append(tuple(per_program))
        return tuple(out)

    @cached_property
    def _sizes(self) -> tuple[int, ...]:
        return tuple(sum(map(len, by_root)) for by_root in self.spans)

    def size(self, d: int) -> int:
        """Number of networks in stratum d."""
        return self._sizes[d]

    def stratum_sizes(self) -> list[int]:
        return [self.size(d) for d in range(self.depth + 1)]

    # the network semantics checker.evaluate reads; a node's context is its stratum

    shifts = frozenset({Diamond, BoxPdl})

    def full(self, d: int) -> int:
        return (1 << self._sizes[d]) - 1

    def lift(self, states: int, d: int) -> int:
        """The networks of stratum d rooted at the given source states."""
        cells = self.cells[d]
        m = 0
        for x in iter_points(states):
            m |= cells[x]
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
        cls = type(node)
        if cls is not Diamond and cls is not BoxPdl:
            raise ValueError(f"no network semantics for {format_formula(node)}")
        images = self.images[d][self.source.alphabet.index(node.prog.name)]
        # closure/interior of a shift preimage on a partition topology: a
        # cell passes if its shift image meets (dually, lies inside) the body
        m = 0
        if cls is Diamond:
            for img, cell in zip(images, self.cells[d]):
                if img & body:
                    m |= cell
        else:
            for img, cell in zip(images, self.cells[d]):
                if img & body == img:
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
    shift_index: list[tuple[tuple[int, ...], ...]] = [()]
    # per stratum, each root's networks: they are contiguous, roots ascending
    spans = [tuple(range(x, x + 1) for x in range(model.n))]
    for _ in range(depth):
        below = spans[-1]
        rows, by_root = [], []
        for x in range(model.n):
            start = len(rows)
            # along each program, any network one stratum down rooted at a successor
            rows.extend(itertools.product(*(
                [i for y in iter_points(model.rel[name][x]) for i in below[y]]
                for name in model.alphabet
            )))
            by_root.append(range(start, len(rows)))
        shift_index.append(tuple(rows))
        spans.append(tuple(by_root))
    return NetworkSpace(model, depth, tuple(shift_index), tuple(spans))


def network_extension(space: NetworkSpace, f: Formula, d: int) -> int:
    """Bitmask over stratum d of the networks satisfying f.

    Needs modal_depth(f) <= d: each relational modality consumes one stratum.
    """
    if modal_depth(f) > d:
        raise DepthExceeded(
            f"formula needs depth {modal_depth(f)} but stratum {d} was requested"
        )
    return evaluate(f, space, d)


def check_shift_openness(space: NetworkSpace) -> list[dict]:
    """Shift images of basis cells must be unions of cells one stratum down:
    the image of the cell of root x is exactly the union of the cells of the
    relational successors of x."""
    failures = []
    for d in range(1, space.depth + 1):
        for p, name in enumerate(space.source.alphabet):
            for x, img in enumerate(space.images[d][p]):
                if img != space.lift(space.source.rel[name][x], d - 1):
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


def _check_formulas(formulas: list[Formula], depth: int) -> None:
    """Refuse the first formula outside the relational language or deeper
    than depth; it reads no model, so a caller may run it before building
    a space."""
    for f in formulas:
        if not in_language(f, Language.PDL):
            raise ValueError(f"networks interpret relational formulas only: {format_formula(f)}")
        need = modal_depth(f)  # set when f was built, so no guard here walks f
        if need > depth:
            raise DepthExceeded(
                f"formula {format_formula(f)} needs depth {need}, space has {depth}"
            )


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
    where f holds in the source.  Every formula's language and depth are
    checked first, before a space is built; then one walk judges the whole
    list on the source model (``eval_pdl_relational_all``) and one on the
    space at ``depth``, so a subterm the formulas share is judged once per
    semantics and stratum.
    Disagreements come in list order, each naming its network by ``depth``,
    ``index`` and ``root``, as the strata of ``network_space_to_json`` do.
    Pass ``space`` to reuse a space already built from the same model and
    depth."""
    formulas = list(formulas)
    _check_formulas(formulas, depth)
    if space is None:
        space = build_network_space(model, depth, budget)
    sources = eval_pdl_relational_all(model, formulas)
    networks = evaluate_all(formulas, space, depth)
    disagreements: list[dict] = []
    for f, source_ext, net_ext in zip(formulas, sources, networks):
        for i in iter_points(space.lift(source_ext, depth) ^ net_ext):
            root = next(x for x, span in enumerate(space.spans[depth]) if i in span)
            src = bool(source_ext >> root & 1)
            disagreements.append({"formula": format_formula(f), "depth": depth, "index": i,
                                  "root": root, "source": src, "network_truth": not src})
    return PreservationReport(checked=len(formulas) * space.size(depth),
                              disagreements=tuple(disagreements))


def network_space_to_json(space: NetworkSpace) -> dict:
    """Emit the space as a subset-space model JSON: points are all networks,
    opens are generated by the root cells, shifts are partial maps, undefined
    on stratum 0.  Each stratum lists its networks' roots in point order; a
    network's children are its images under the program maps."""
    model = space.source
    sizes = space.stratum_sizes()
    offsets = [sum(sizes[:d]) for d in range(space.depth + 1)]
    cells = [list(range(offsets[d] + s.start, offsets[d] + s.stop))
             for d in range(space.depth + 1) for s in space.spans[d]]
    maps: dict[str, list] = {}
    for p, name in enumerate(model.alphabet):
        table: list[int | None] = [None] * sizes[0]
        for d in range(1, space.depth + 1):
            offset = offsets[d - 1]
            table.extend([offset + row[p] for row in space.shift_index[d]])
        maps[name] = table
    valuation = {}
    for atom, v in sorted(model.val.items()):
        # strata ascending, roots ascending within each: the points come sorted
        valuation[atom] = [offsets[d] + i for d in range(space.depth + 1)
                           for x in iter_points(v) for i in space.spans[d][x]]
    return {
        "type": "subset",
        "space": {"points": sum(sizes), "subbasis": cells},
        "programs": {name: {"map": maps[name]} for name in model.alphabet},
        "valuation": valuation,
        "strata": [
            {
                "depth": d,
                "points": list(range(offsets[d], offsets[d] + sizes[d])),
                "roots": [x for x, span in enumerate(space.spans[d]) for _ in span],
            }
            for d in range(space.depth + 1)
        ],
        "source_points": model.n,
    }
