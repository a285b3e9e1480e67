"""Reference semantics the benchmark checks topodyn's answers against.

Everything here is written from the definitions, independently of the
program: formulas are plain tuples, spaces are read from the model JSON
(interior of a set is the union of the opens inside it, or the up-set test
for spaces given as preorders), and the frame properties use the preimage
and image criteria.

Formula tuples:
    ("atom", name)  ("top",)  ("not", f)  ("and" | "or" | "imp" | "iff", f, g)
    ("dia", prog, f)   relational <prog> f
    ("boxp", prog, f)  relational [prog] f
    ("int", f)  ("cl", f)  ("K", f)  ("Khat", f)  ("next", prog, f)   O[prog] f
Programs are a name string or ("seq", first, second).
"""

from __future__ import annotations

BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
UNARY = {"not": "~", "int": "box ", "cl": "dia ", "K": "K ", "Khat": "Khat "}


# --- text -----------------------------------------------------------------------


def prog_text(p) -> str:
    if isinstance(p, str):
        return p
    return f"({prog_text(p[1])};{prog_text(p[2])})"


def text(f) -> str:
    """CLI syntax, parenthesised everywhere so no precedence rule is relied on."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "top":
        return "top"
    if tag in UNARY:
        return f"{UNARY[tag]}({text(f[1])})"
    if tag in BINARY:
        return f"({text(f[1])} {BINARY[tag]} {text(f[2])})"
    opener = {"dia": "<{}>", "boxp": "[{}]", "next": "O[{}]"}[tag]
    return opener.format(prog_text(f[1])) + f" ({text(f[2])})"


def modal_depth(f) -> int:
    tag = f[0]
    if tag in ("atom", "top"):
        return 0
    if tag in UNARY:
        return modal_depth(f[1])
    if tag in BINARY:
        return max(modal_depth(f[1]), modal_depth(f[2]))
    return prog_length(f[1]) + modal_depth(f[2])


def prog_length(p) -> int:
    return 1 if isinstance(p, str) else prog_length(p[1]) + prog_length(p[2])


# --- masks and spaces -------------------------------------------------------------


def mask(points) -> int:
    m = 0
    for x in points:
        m |= 1 << x
    return m


def members(m: int) -> list[int]:
    return [x for x in range(m.bit_length()) if m >> x & 1]


class Space:
    """A finite space known either by its opens or by a preorder."""

    def __init__(self, n: int, opens=None, up=None):
        self.n = n
        self.full = (1 << n) - 1
        self._opens = opens
        self._up = up

    @classmethod
    def from_json(cls, obj: dict) -> "Space":
        n = obj["points"]
        if "preorder" in obj:
            up = [1 << x for x in range(n)]
            for x, y in obj["preorder"]:
                up[x] |= 1 << y
            return cls(n, up=up)
        if "opens" in obj:
            return cls(n, opens=sorted({mask(o) for o in obj["opens"]}))
        raise ValueError("reference spaces take opens or a preorder")

    def is_open(self, a: int) -> bool:
        if self._up is not None:
            return all(self._up[x] & ~a == 0 for x in members(a))
        return a in self._opens

    def opens(self) -> list[int]:
        """Canonical order of the CLI's scenario indices: size, then bitmask."""
        if self._opens is None:
            self._opens = [a for a in range(1 << self.n) if self.is_open(a)]
        return sorted(self._opens, key=lambda o: (bin(o).count("1"), o))

    def interior(self, a: int) -> int:
        if self._up is not None:
            return mask(x for x in range(self.n) if self._up[x] & ~a == 0)
        out = 0
        for o in self._opens:
            if o & ~a == 0:
                out |= o
        return out

    def closure(self, a: int) -> int:
        return self.full & ~self.interior(self.full & ~a)


# --- models ---------------------------------------------------------------------------


class Model:
    """Reference reading of a model JSON document (pdl, dtl or subset)."""

    def __init__(self, obj: dict):
        self.kind = obj["type"]
        programs = obj.get("programs", {})
        if self.kind == "pdl":
            self.n = obj["points"]
            self.space = None
            self.succ = {}
            for name, spec in programs.items():
                rows = [0] * self.n
                for x, y in spec["rel"]:
                    rows[x] |= 1 << y
                self.succ[name] = rows
        else:
            self.space = Space.from_json(obj["space"])
            self.n = self.space.n
            self.maps = {name: list(spec["map"]) for name, spec in programs.items()}
        self.val = {a: mask(pts) for a, pts in obj.get("valuation", {}).items()}

    # program interpretations

    def map_of(self, p) -> list:
        if isinstance(p, str):
            return self.maps[p]
        first, second = self.map_of(p[1]), self.map_of(p[2])
        return [None if y is None else second[y] for y in first]

    def succ_of(self, p) -> list[int]:
        if isinstance(p, str):
            return self.succ[p]
        first, second = self.succ_of(p[1]), self.succ_of(p[2])
        out = []
        for row in first:
            m = 0
            for y in members(row):
                m |= second[y]
            out.append(m)
        return out

    # semantics

    def extension(self, f) -> int:
        """Points satisfying f, for relational and dynamic-topological models."""
        full = (1 << self.n) - 1
        tag = f[0]
        if tag == "atom":
            return self.val.get(f[1], 0)
        if tag == "top":
            return full
        if tag == "not":
            return full & ~self.extension(f[1])
        if tag in BINARY:
            return _boolean(tag, self.extension(f[1]), self.extension(f[2]), full)
        if tag in ("dia", "boxp") and self.kind == "pdl":
            body, rows = self.extension(f[2]), self.succ_of(f[1])
            if tag == "dia":
                return mask(x for x in range(self.n) if rows[x] & body)
            return mask(x for x in range(self.n) if rows[x] & ~body == 0)
        if tag == "int":
            return self.space.interior(self.extension(f[1]))
        if tag == "cl":
            return self.space.closure(self.extension(f[1]))
        if tag in ("next", "dia", "boxp"):
            fn, body = self.map_of(f[1]), self.extension(f[2])
            pre = mask(x for x in range(self.n) if fn[x] is not None and body >> fn[x] & 1)
            if tag == "dia":
                return self.space.closure(pre)
            if tag == "boxp":
                return self.space.interior(pre)
            return pre
        raise ValueError(f"no point semantics for {tag}")

    def scenario_extension(self, f, u: int) -> int:
        """Points x of the open u with (x, u) satisfying f, on subset models."""
        tag = f[0]
        if tag == "atom":
            return self.val.get(f[1], 0) & u
        if tag == "top":
            return u
        if tag == "not":
            return u & ~self.scenario_extension(f[1], u)
        if tag in BINARY:
            left = self.scenario_extension(f[1], u)
            return _boolean(tag, left, self.scenario_extension(f[2], u), u)
        if tag == "K":
            return u if self.scenario_extension(f[1], u) == u else 0
        if tag == "Khat":
            return u if self.scenario_extension(f[1], u) else 0
        if tag == "int":
            return self.space.interior(self.scenario_extension(f[1], u))
        if tag == "cl":
            return u & ~self.space.interior(u & ~self.scenario_extension(f[1], u))
        if tag == "next":
            fn = self.map_of(f[1])
            moved = mask(fn[x] for x in members(u) if fn[x] is not None)
            body = self.scenario_extension(f[2], moved)
            return mask(x for x in members(u) if fn[x] is not None and body >> fn[x] & 1)
        raise ValueError(f"no scenario semantics for {tag}")


def _boolean(tag: str, a: int, b: int, full: int) -> int:
    if tag == "and":
        return a & b
    if tag == "or":
        return a | b
    if tag == "imp":
        return (full & ~a) | b
    return full & ~(a ^ b)


# --- frame properties ----------------------------------------------------------------


def continuous(space: Space, fn) -> bool:
    """Preimage criterion: the preimage of every open is open."""
    return all(
        space.is_open(mask(x for x in range(space.n) if v >> fn[x] & 1))
        for v in space.opens()
    )


def open_map(space: Space, fn) -> bool:
    """Image criterion: the image of every open is open (partial maps allowed)."""
    return all(
        space.is_open(mask(fn[x] for x in members(u) if fn[x] is not None))
        for u in space.opens()
    )


def in_class(model: Model, model_class: str) -> bool:
    """Does a countermodel belong to the class the search was asked for?"""
    if model_class == "pdl_serial":
        return model.kind == "pdl" and all(all(rows) for rows in model.succ.values())
    if model_class == "subset":
        return model.kind == "subset" and all(open_map(model.space, fn) for fn in model.maps.values())
    if model.kind != "dtl" or any(None in fn for fn in model.maps.values()):
        return False
    if model_class == "dtl_open":
        return all(open_map(model.space, fn) for fn in model.maps.values())
    if model_class == "dtl_continuous":
        return all(continuous(model.space, fn) for fn in model.maps.values())
    return model_class == "dtl"


# --- network counts ----------------------------------------------------------------


def stratum_sizes(succ: dict[str, list[int]], n: int, depth: int) -> list[int]:
    """Networks per stratum: a depth-(d+1) network rooted at x picks, for each
    program, a depth-d network rooted at one of x's successors."""
    rows = [[1] * n]
    for _ in range(depth):
        prev = rows[-1]
        row = []
        for x in range(n):
            total = 1
            for name in succ:
                total *= sum(prev[y] for y in members(succ[name][x]))
            row.append(total)
        rows.append(row)
    return [sum(row) for row in rows]
