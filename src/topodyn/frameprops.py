"""Frame-property deciders and the matching countermodel builders.

Continuity of a program map is equivalent to validity of the scheme
``O[prog] box p -> box O[prog] p`` over all valuations of p; openness matches
``box O[prog] p -> O[prog] box p``.  Both deciders scan the minimal basis in
canonical order: every open is a union of basis blocks, so the blocks decide
the property, and the first failing block is the first failing open, which
is the witness.  The tests check this against the every-open definition.  The
builders turn a semantic failure into an explicit refuting valuation and point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .formula import Atom, Atomic, Formula, Implies, Int, Next
from .models import DTModel, PDLModel, image, preimage
from .topology import TopoSpace, iter_points, points_from_mask

CONTINUITY = "continuity"
OPENNESS = "openness"
SERIALITY = "seriality"

_P = Atom("p")


def scheme_formula(kind: str, prog: str = "pi") -> Formula:
    step = Atomic(prog)
    if kind == CONTINUITY:
        return Implies(Next(step, Int(_P)), Int(Next(step, _P)))
    if kind == OPENNESS:
        return Implies(Int(Next(step, _P)), Next(step, Int(_P)))
    raise ValueError(f"unknown scheme kind: {kind!r}")


@dataclass(frozen=True)
class FrameWitness:
    program: str | None = None
    point: int | None = None
    open_set: int | None = None
    valuation: int | None = None

    def to_json(self) -> dict:
        out: dict = {}
        if self.program is not None:
            out["program"] = self.program
        if self.point is not None:
            out["point"] = self.point
        if self.open_set is not None:
            out["open_set"] = points_from_mask(self.open_set)
        if self.valuation is not None:
            out["valuation"] = points_from_mask(self.valuation)
        return out


@dataclass(frozen=True)
class FrameReport:
    prop: str
    holds: bool
    witness: FrameWitness | None = None

    def to_json(self) -> dict:
        out: dict = {"property": self.prop, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def is_continuous(space: TopoSpace, fn: Sequence[int]) -> FrameReport:
    """Preimage of every open is open.  Preimages preserve unions, so
    checking the minimal neighbourhoods suffices, and the first open in
    canonical order with a non-open preimage is one of them.  The witness
    point lies in that preimage but outside its interior."""
    for v in space.minimal_basis:
        a = preimage(fn, v)
        if not space.is_open(a):
            x = next(iter_points(a & ~space.interior(a)))
            return FrameReport(CONTINUITY, False, FrameWitness(point=x, open_set=v))
    return FrameReport(CONTINUITY, True)


def is_open_map(space: TopoSpace, fn: Sequence[Optional[int]]) -> FrameReport:
    """Image of every open is open.  Handles partial maps, so subset-model
    validation can share it.  Every open is a union of minimal
    neighbourhoods, so checking their images suffices.  The witness is the
    first open in canonical order with a non-open image, which is always a
    minimal neighbourhood: were every one inside it mapped onto an open, so
    would their union be."""
    for u in space.minimal_basis:
        if not space.is_open(image(fn, u)):
            return FrameReport(OPENNESS, False, FrameWitness(open_set=u))
    return FrameReport(OPENNESS, True)


def is_serial(model: PDLModel) -> FrameReport:
    for name in model.alphabet:
        for x, succ in enumerate(model.rel[name]):
            if succ == 0:
                return FrameReport(SERIALITY, False, FrameWitness(program=name, point=x))
    return FrameReport(SERIALITY, True)


def validates_scheme(space: TopoSpace, fn: Sequence[int], kind: str) -> FrameReport:
    """Is the interaction scheme valid over every valuation of p?  All
    valuations are judged at once; the witness is the least failing
    valuation and the least point failing under it."""
    from .checker import least_failure

    frame = DTModel(space=space, alphabet=("pi",), fn={"pi": tuple(fn)}, val={})
    found = least_failure(frame, scheme_formula(kind), ("p",))
    if found is not None:
        v, x = found
        return FrameReport(kind, False, FrameWitness(point=x, valuation=v))
    return FrameReport(kind, True)


def build_continuity_countermodel(
    space: TopoSpace, fn: Sequence[int]
) -> Optional[tuple[int, int]]:
    """For a discontinuous map, produce (valuation of p, point) refuting
    ``O[pi] box p -> box O[pi] p``.

    Recipe: take the smallest open v whose preimage a is not open and a point
    x of a outside int(a); with p true exactly on v, x satisfies the
    antecedent but not the consequent.  Returns None for continuous maps.
    """
    report = is_continuous(space, fn)
    if report.holds:
        return None
    return report.witness.open_set, report.witness.point


def build_openness_countermodel(
    space: TopoSpace, fn: Sequence[int]
) -> Optional[tuple[int, int]]:
    """For a non-open map, produce (valuation of p, point) refuting
    ``box O[pi] p -> O[pi] box p``.

    Recipe: take the smallest open u with non-open image a and a point x of u
    sent into a \\ int(a); with p true exactly on a, x satisfies the
    antecedent but not the consequent.  Returns None for open maps.
    """
    report = is_open_map(space, fn)
    if report.holds:
        return None
    u = report.witness.open_set
    a = image(fn, u)
    bad = a & ~space.interior(a)
    x = next(x for x in iter_points(u) if bad >> fn[x] & 1)
    return a, x
