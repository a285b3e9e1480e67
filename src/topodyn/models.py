"""Model classes: relational, dynamic-topological and subset-space.

All three share bitmask valuations.  Program interpretations are stored per
atomic program; sequential compositions and test programs are interpreted on
demand by ``program_function``.  ``validate`` returns violations rather than
raising so callers can report several problems at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .formula import Atomic, Program, Test, format_program, seq_steps
from .topology import (
    TopoSpace,
    full_mask,
    iter_points,
    mask_from_points,
    points_from_mask,
)


@dataclass(frozen=True, eq=False)
class PDLModel:
    n: int
    alphabet: tuple[str, ...]
    rel: Mapping[str, tuple[int, ...]]  # program name -> successor mask per point
    val: Mapping[str, int]
    serial_flag: bool = False


@dataclass(frozen=True, eq=False)
class _MapModel:
    space: TopoSpace
    alphabet: tuple[str, ...]
    fn: Mapping[str, tuple[Optional[int], ...]]  # program name -> image of each point
    val: Mapping[str, int]

    @property
    def n(self) -> int:
        return self.space.n


class DTModel(_MapModel):
    """A space with one total map per program (dynamic-topological)."""


class SubsetModel(_MapModel):
    """A space with one open partial map per program; None marks undefined."""


Model = Union[PDLModel, DTModel, SubsetModel]


@dataclass(frozen=True)
class Scenario:
    x: int
    u: int  # open bitmask containing x

    def to_json(self) -> dict:
        return {"x": self.x, "u": points_from_mask(self.u)}


@dataclass(frozen=True)
class Violation:
    kind: str
    program: str | None = None
    point: int | None = None
    subset: int | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.program is not None:
            out["program"] = self.program
        if self.point is not None:
            out["point"] = self.point
        if self.subset is not None:
            out["subset"] = points_from_mask(self.subset)
        if self.detail:
            out["detail"] = self.detail
        return out


def _check_valuation(val: Mapping[str, int], n: int) -> list[Violation]:
    full = full_mask(n)
    return [
        Violation("ValuationOutOfRange", detail=f"atom {a}")
        for a, m in val.items()
        if m & ~full
    ]


def _check_alphabet(alphabet: Sequence[str], table: Mapping[str, object]) -> list[Violation]:
    out = []
    for name in alphabet:
        if name not in table:
            out.append(Violation("MissingProgram", program=name))
    for name in table:
        if name not in alphabet:
            out.append(Violation("UnknownProgram", program=name))
    return out


def validate(model: Model) -> list[Violation]:
    """Structural invariants; empty list means the model is well formed."""
    if isinstance(model, PDLModel):
        table, check_row = model.rel, _check_successors
    elif isinstance(model, _MapModel):
        table, check_row = model.fn, _check_map
    else:
        raise TypeError(f"not a model: {model!r}")
    out = _check_valuation(model.val, model.n)
    out += _check_alphabet(model.alphabet, table)
    for name in model.alphabet:
        row = table.get(name)
        if row is None:
            continue
        if len(row) != model.n:
            out.append(Violation("BadLength", program=name))
        else:
            out += check_row(model, name, row)
    return out


def _check_successors(model: PDLModel, name: str, succ: tuple[int, ...]) -> list[Violation]:
    full = full_mask(model.n)
    out = []
    for x, m in enumerate(succ):
        if m & ~full:
            out.append(Violation("SuccessorOutOfRange", program=name, point=x))
        if model.serial_flag and m == 0:
            out.append(Violation("SerialityFailure", program=name, point=x))
    return out


def _check_map(model: _MapModel, name: str, fn: tuple[Optional[int], ...]) -> list[Violation]:
    """A dynamic-topological map must be total.  A subset-space map may be
    partial but must be open, which is decided only when every value is in
    range."""
    partial = isinstance(model, SubsetModel)
    out = []
    for x, y in enumerate(fn):
        if y is None:
            if not partial:
                out.append(Violation("TotalityFailure", program=name, point=x))
        elif not 0 <= y < model.n:
            out.append(Violation("ValueOutOfRange", program=name, point=x))
    if partial and not out:
        from .frameprops import is_open_map

        report = is_open_map(model.space, fn)
        if not report.holds:
            out.append(Violation("OpennessFailure", program=name, subset=report.witness.open_set))
    return out


def validate_scenario(model: SubsetModel, s: Scenario) -> None:
    if not model.space.is_open(s.u):
        raise ValueError(f"scenario set {points_from_mask(s.u)} is not open")
    if not s.u >> s.x & 1:
        raise ValueError(f"scenario point {s.x} is not in {points_from_mask(s.u)}")


def image(fn: Sequence[Optional[int]], u: int) -> int:
    m = 0
    for x in iter_points(u):
        y = fn[x]
        if y is not None:
            m |= 1 << y
    return m


def preimage(fn: Sequence[Optional[int]], v: int) -> int:
    """Points that fn sends into v; a point where fn is undefined is not."""
    m = 0
    for x, y in enumerate(fn):
        if y is not None and v >> y & 1:
            m |= 1 << x
    return m


def compose(first: Sequence[Optional[int]], second: Sequence[Optional[int]]) -> tuple[Optional[int], ...]:
    """Run ``first``, then ``second``; undefinedness propagates."""
    return tuple(
        second[y] if (y := first[x]) is not None else None for x in range(len(first))
    )


def program_function(model: Union[DTModel, SubsetModel], prog: Program) -> tuple[Optional[int], ...]:
    """Interpret a program expression as a (partial) map on points.

    Sequencing composes left to right: the seq map is the second map after the
    first.  Test programs restrict the identity to the interior of the body's
    extension and are only meaningful on subset models.
    """
    result = None
    for part in seq_steps(prog):
        if isinstance(part, Atomic):
            try:
                fn = tuple(model.fn[part.name])
            except KeyError:
                raise ValueError(f"unknown program {part.name!r}") from None
        elif isinstance(part, Test):
            if not isinstance(model, SubsetModel):
                raise ValueError(
                    f"test program {format_program(part)} needs a subset-space model"
                )
            from .checker import state_extension

            guard = model.space.interior(state_extension(model, part.body))
            fn = tuple(x if guard >> x & 1 else None for x in range(model.n))
        else:
            raise TypeError(f"not a program: {part!r}")
        result = fn if result is None else compose(result, fn)
    return result


# --- JSON ----------------------------------------------------------------------


def _val_to_json(val: Mapping[str, int]) -> dict:
    return {a: points_from_mask(m) for a, m in sorted(val.items())}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _field(obj: dict, key: str, owner: str) -> object:
    """``obj[key]``, or a ValueError naming the missing field and its owner."""
    if key not in obj:
        raise ValueError(f"{owner} has no {key!r} field")
    return obj[key]


def _is_list_of(value: object, ok) -> bool:
    return isinstance(value, list) and all(ok(v) for v in value)


def _is_point(v: object) -> bool:
    return type(v) is int  # bool and float are not points


def _is_pair(v: object) -> bool:
    return _is_list_of(v, _is_point) and len(v) == 2


def _val_from_json(obj: object, n: int) -> dict[str, int]:
    _require(
        isinstance(obj, dict) and all(isinstance(pts, list) for pts in obj.values()),
        "valuation must map atoms to lists of points",
    )
    return {a: mask_from_points(pts, n) for a, pts in obj.items()}


def model_to_json(model: Model) -> dict:
    if isinstance(model, PDLModel):
        return {
            "type": "pdl",
            "points": model.n,
            "serial": model.serial_flag,
            "programs": {
                name: {"rel": [[x, y] for x in range(model.n) for y in iter_points(model.rel[name][x])]}
                for name in model.alphabet
            },
            "valuation": _val_to_json(model.val),
        }
    if isinstance(model, _MapModel):
        return {
            "type": "subset" if isinstance(model, SubsetModel) else "dtl",
            "space": model.space.to_json(),
            "programs": {name: {"map": list(model.fn[name])} for name in model.alphabet},
            "valuation": _val_to_json(model.val),
        }
    raise TypeError(f"not a model: {model!r}")


def model_from_json(obj: dict) -> Model:
    """Decode a model, rejecting wrongly typed fields with ValueError."""
    _require(isinstance(obj, dict), "a model must be a JSON object")
    kind = obj.get("type")
    programs = obj.get("programs", {})
    _require(
        isinstance(programs, dict) and all(isinstance(s, dict) for s in programs.values()),
        "programs must map names to objects",
    )
    alphabet = tuple(programs)  # document order, so round trips are exact
    if kind == "pdl":
        n = _field(obj, "points", "a pdl model")
        _require(_is_point(n) and n >= 0, "points must be a nonnegative integer")
        rel = {}
        for name, spec in programs.items():
            edges = _field(spec, "rel", f"program {name!r}")
            _require(
                _is_list_of(edges, _is_pair),
                f"program {name!r}: rel must be a list of [x, y] integer pairs",
            )
            succ = [0] * n
            for x, y in edges:
                if not (0 <= x < n and 0 <= y < n):
                    raise ValueError(f"edge ({x}, {y}) outside 0..{n - 1}")
                succ[x] |= 1 << y
            rel[name] = tuple(succ)
        return PDLModel(
            n=n,
            alphabet=alphabet,
            rel=rel,
            val=_val_from_json(obj.get("valuation", {}), n),
            serial_flag=bool(obj.get("serial", False)),
        )
    if kind in ("dtl", "subset"):
        space = TopoSpace.from_json(_field(obj, "space", f"a {kind} model"))
        maps = {}
        for name, spec in programs.items():
            fn = _field(spec, "map", f"program {name!r}")
            _require(
                _is_list_of(fn, lambda y: y is None or _is_point(y)),
                f"program {name!r}: map entries must be integers or null",
            )
            maps[name] = tuple(fn)
        for name, fn in maps.items():
            if len(fn) != space.n:
                raise ValueError(f"program {name!r} map has wrong length")
        cls = SubsetModel if kind == "subset" else DTModel
        return cls(space, alphabet, maps, _val_from_json(obj.get("valuation", {}), space.n))
    raise ValueError(f"unknown model type: {kind!r}")
