"""Formulas and programs for three modal object languages.

The languages share one AST:

* ``Language.PDL`` -- Boolean connectives plus the program modalities
  ``<prog> f`` and ``[prog] f``.
* ``Language.BOX_NEXT`` -- Boolean connectives plus interior/closure
  (``box``/``dia``) and the execution modality ``O[prog] f``.
* ``Language.K_BOX_NEXT`` -- BOX_NEXT plus knowledge ``K``/``Khat``.

Programs are atomic names, sequential compositions ``a;b`` and test programs
``?(f)``.  Test bodies must stay inside the box/next fragment; the constructor
enforces this.

Nodes are never mutated.  Each one computes its structural hash, language
set, modal depth and AST depth once, at construction, from its children's, so
hashing, most unequal comparisons, ``in_language`` and ``modal_depth`` cost
O(1) whatever the depth.  ``compile`` flattens a formula into a post-order
node array, built once and cached on the root; the folds below (substitution,
printing, the JSON view) are one loop over that array, so none of them
recurses.

Concrete syntax (ASCII): atoms are ``[a-z][a-z0-9_]*``; ``box``, ``dia`` and
``top`` are reserved words.  Unary modalities bind tighter than ``&``, which
binds tighter than ``|``, then ``->`` (right associative), then ``<->``.
``;`` in programs is left associative.  Parsed formulas nest at most
``MAX_NESTING`` levels, counting both AST depth and open brackets.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import is_
from typing import Callable, Mapping, TypeVar

MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class FragmentViolation(ParseError):
    """A test-program body used a connective outside the box/next fragment."""


class Language(Enum):
    PDL = "pdl"
    BOX_NEXT = "box_next"
    K_BOX_NEXT = "k_box_next"


# a set of languages is a mask with one bit per language
_BIT = {lang: 1 << i for i, lang in enumerate(Language)}
_ALL = sum(_BIT.values())
_TOPOLOGICAL = _BIT[Language.BOX_NEXT] | _BIT[Language.K_BOX_NEXT]


# --- AST -------------------------------------------------------------------


class Node:
    """A formula or program node.  ``children`` holds the subterms in field
    order (program before body), and the named fields read from it.  Nodes
    are never mutated: the constructor sets the hash, the language set
    ``_in``, the modal depth and the AST depth ``_height`` from the
    children's, and ``compile`` caches the node array."""

    __slots__ = ("children", "name", "_hash", "_in", "_depth", "_height", "_nodes")
    _fields: tuple[str, ...] = ()
    _tag = ""  # JSON type name
    _langs = _ALL  # mask of the languages the node may occur in

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("_fields", ())
        for i, field in enumerate(fields):
            setattr(cls, field, property(lambda self, i=i: self.children[i]))
        if "__init__" not in cls.__dict__ and fields:
            cls.__init__ = _unary_init if len(fields) == 1 else _binary_init

    def __init__(self) -> None:
        self.children = ()
        self._hash = hash((type(self),))
        self._in, self._depth, self._height = _ALL, 0, 1

    def rebuild(self, children) -> "Node":
        """The same node over new children; itself when none changed."""
        if all(map(is_, children, self.children)):
            return self
        return type(self)(*children)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a._hash != b._hash or type(a) is not type(b):
                return False
            if a.children:
                stack.extend(zip(a.children, b.children))
            elif getattr(a, "name", None) != getattr(b, "name", None):
                return False
        return True

    def __repr__(self) -> str:
        pairs = [("name", self.name)] if hasattr(self, "name") else zip(self._fields, self.children)
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __str__(self) -> str:
        return format_formula(self)


# constructors by arity: each fact of a node is computed here, once, from
# its children's.  Modal depth counts an atomic program as one step; a
# program runs before its body (or a sequence's second step), so their
# depths add, and every other node takes its children's maximum.


def _leaf_init(self: Node, name: str) -> None:
    self.name = name
    self.children = ()
    self._hash = hash((type(self), name))
    self._in, self._height = _ALL, 1
    self._depth = 1 if isinstance(self, Program) else 0


def _unary_init(self: Node, body: Node) -> None:
    self.children = (body,)
    self._hash = hash((type(self), body._hash))
    self._in, self._depth, self._height = body._in & self._langs, body._depth, body._height + 1


def _binary_init(self: Node, left: Node, right: Node) -> None:
    self.children = (left, right)
    self._hash = hash((type(self), left._hash, right._hash))
    self._in = left._in & right._in & self._langs
    a, b = left._depth, right._depth
    self._depth = a + b if isinstance(left, Program) else a if a > b else b
    a, b = left._height, right._height
    self._height = 1 + (a if a > b else b)  # not max(): this runs per node built


class Formula(Node):
    __slots__ = ()

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)


class Program(Node):
    __slots__ = ("_key",)  # the interpretation key (see ``checker``), cached


class Atom(Formula):
    __slots__ = ()
    _tag = "atom"
    __init__ = _leaf_init


class Top(Formula):
    __slots__ = ()
    _tag = "top"


class Not(Formula):
    __slots__ = ()
    _fields, _tag = ("body",), "not"


class And(Formula):
    __slots__ = ()
    _fields, _tag = ("left", "right"), "and"


class Or(Formula):
    __slots__ = ()
    _fields, _tag = ("left", "right"), "or"


class Implies(Formula):
    __slots__ = ()
    _fields, _tag = ("left", "right"), "implies"


class Iff(Formula):
    __slots__ = ()
    _fields, _tag = ("left", "right"), "iff"


class Diamond(Formula):
    """Relational possibility: some execution of the program reaches body."""

    __slots__ = ()
    _fields, _tag, _langs = ("prog", "body"), "pdl_dia", _BIT[Language.PDL]


class BoxPdl(Formula):
    """Relational necessity, the dual of Diamond."""

    __slots__ = ()
    _fields, _tag, _langs = ("prog", "body"), "pdl_box", _BIT[Language.PDL]


class Int(Formula):
    """Topological interior (printed ``box``)."""

    __slots__ = ()
    _fields, _tag, _langs = ("body",), "interior", _TOPOLOGICAL


class Cl(Formula):
    """Topological closure (printed ``dia``)."""

    __slots__ = ()
    _fields, _tag, _langs = ("body",), "closure", _TOPOLOGICAL


class Know(Formula):
    __slots__ = ()
    _fields, _tag, _langs = ("body",), "know", _BIT[Language.K_BOX_NEXT]


class KHat(Formula):
    __slots__ = ()
    _fields, _tag, _langs = ("body",), "khat", _BIT[Language.K_BOX_NEXT]


class Next(Formula):
    """One execution step of a (possibly partial) program."""

    __slots__ = ()
    _fields, _tag, _langs = ("prog", "body"), "next", _TOPOLOGICAL


class Atomic(Program):
    __slots__ = ()
    _tag = "prog"
    __init__ = _leaf_init


class Seq(Program):
    __slots__ = ()
    _fields, _tag = ("left", "right"), "seq"


class Test(Program):
    # Tests are a subset-space construct; L_PDL programs are names and seqs.
    __slots__ = ()
    _fields, _tag, _langs = ("body",), "test", _TOPOLOGICAL

    def __init__(self, body: Formula):
        if not in_language(body, Language.BOX_NEXT):
            raise FragmentViolation(
                f"test body must stay in the box/next fragment: {format_formula(body)}"
            )
        _unary_init(self, body)


TOP = Top()

BOOLEAN = frozenset({Top, Not, And, Or, Implies, Iff})
BINARY = frozenset({And, Or, Implies, Iff})
MODAL = (Diamond, BoxPdl, Next)


# --- the node array and folds over it ------------------------------------------

NodeArray = tuple[tuple[type, tuple[int, ...], Node], ...]


def compile(f: Node) -> NodeArray:
    """Post-order node array of f: entry i is ``(class, child ids, node)``.

    Children precede their parents, equal subterms (programs and test bodies
    included) share one id, and the root comes last.  Built without recursion,
    once per root, and cached on it; the array holds nothing model-dependent.
    """
    nodes = getattr(f, "_nodes", None)
    if nodes is not None:
        return nodes
    if not isinstance(f, Node):
        raise TypeError(f"not a formula: {f!r}")
    index: dict[int, int] = {}  # id() of a node object -> its array id
    ids: dict[tuple, int] = {}  # (class, child ids or name) -> array id
    out = []
    stack = [(f, False)]  # (node, children done?)
    while stack:
        n, ready = stack.pop()
        cls = type(n)
        if ready:
            kids = tuple([index[id(c)] for c in n.children])
            key = (cls, kids)
        elif id(n) in index:
            continue
        elif n.children:
            stack.append((n, True))
            stack.extend([(c, False) for c in reversed(n.children) if id(c) not in index])
            continue
        else:
            kids = ()
            key = (cls, ()) if cls is Top else (cls, n.name)
        # nodes are equal iff their classes and names or child ids are
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(out)
            out.append((cls, kids, n))
        index[id(n)] = i
    nodes = f._nodes = tuple(out)
    return nodes


T = TypeVar("T")


def fold(f: Node, visit: Callable[[Node, list], T]) -> T:
    """Bottom-up value of f: ``visit(node, values of its children)`` runs once
    per distinct subterm, children first."""
    vals: list = []
    for _, kids, node in compile(f):
        vals.append(visit(node, [vals[k] for k in kids]))
    return vals[-1]


def seq_steps(p: Program) -> list[Program]:
    """The non-sequence parts of a program in execution order."""
    out, stack = [], [p]
    while stack:
        q = stack.pop()
        if type(q) is Seq:
            stack += (q.right, q.left)
        else:
            out.append(q)
    return out


# --- language membership and measures ---------------------------------------


def in_language(f: Formula, lang: Language) -> bool:
    # Test bodies sit in the box/next fragment by construction, so a test is
    # allowed exactly where box and next are.
    return bool(f._in & _BIT[lang])


def modal_depth(f: Formula) -> int:
    """Maximum nesting of execution modalities; a seq of length k counts k."""
    return f._depth


program_depth = modal_depth  # a program's depth is the same measure


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(n.name for cls, _, n in compile(f) if cls is Atom)


def program_names(f: Formula) -> frozenset[str]:
    """Atomic program names occurring anywhere in f, tests included."""
    return frozenset(n.name for cls, _, n in compile(f) if cls is Atomic)


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Uniform substitution of atoms.  Reaches into test bodies; substituting
    a knowledge formula into a test raises FragmentViolation, as it must."""
    return fold(f, lambda n, kids: mapping.get(n.name, n) if type(n) is Atom else n.rebuild(kids))


def substitute_programs(f: Formula, mapping: Mapping[str, Program]) -> Formula:
    """Replace atomic program names throughout, used to instantiate schemes."""
    return fold(f, lambda n, kids: mapping.get(n.name, n) if type(n) is Atomic else n.rebuild(kids))


def _expand(node: Node, kids: list) -> Node:
    cls = type(node)
    if cls is Cl:
        return Not(Int(Not(kids[0])))
    if cls is KHat:
        return Not(Know(Not(kids[0])))
    if cls is BoxPdl:
        return Not(Diamond(kids[0], Not(kids[1])))
    return node.rebuild(kids)


def expand_duals(f: Formula) -> Formula:
    """Rewrite [prog], dia and Khat through their negation duals."""
    return fold(f, _expand)


# --- printer -----------------------------------------------------------------

_PREC_IFF, _PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = range(6)

# connective -> (symbol, precedence, extra binding demanded of left and right)
_INFIX = {
    And: (" & ", _PREC_AND, 0, 1),
    Or: (" | ", _PREC_OR, 0, 1),
    Implies: (" -> ", _PREC_IMPLIES, 1, 0),
    Iff: (" <-> ", _PREC_IFF, 1, 0),
}
_PREFIX = {Not: "~", Int: "box ", Cl: "dia ", Know: "K ", KHat: "Khat "}
_BRACKETS = {Diamond: ("<", ">"), BoxPdl: ("[", "]"), Next: ("O[", "]")}


def _wrap(value: tuple[str, int], ctx: int) -> str:
    text, prec = value
    return f"({text})" if prec < ctx else text


def _show(node: Node, kids: list) -> tuple[str, int]:
    """Text and precedence of a node; programs use 0 for seqs, 1 otherwise."""
    cls = type(node)
    if cls is Atom or cls is Atomic:
        return node.name, _PREC_ATOM
    if cls is Top:
        return "top", _PREC_ATOM
    if cls in _INFIX:
        op, prec, left, right = _INFIX[cls]
        return f"{_wrap(kids[0], prec + left)}{op}{_wrap(kids[1], prec + right)}", prec
    if cls in _PREFIX:
        return _PREFIX[cls] + _wrap(kids[0], _PREC_UNARY), _PREC_UNARY
    if cls in _BRACKETS:
        left, right = _BRACKETS[cls]
        return f"{left}{kids[0][0]}{right} {_wrap(kids[1], _PREC_UNARY)}", _PREC_UNARY
    if cls is Seq:
        return f"{kids[0][0]};{_wrap(kids[1], 1)}", 0
    return f"?({kids[0][0]})", 1  # Test


def format_formula(f: Formula) -> str:
    return fold(f, _show)[0]


format_program = format_formula


# --- parser ------------------------------------------------------------------

_RESERVED = {"box", "dia", "top"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<name>[a-z][a-z0-9_]*)
      | (?P<upper>Khat|K|O)
      | (?P<op><->|->|[~&|<>\[\]();?])
    """,
    re.VERBOSE,
)

_PREFIX_TOKENS = {"~": Not, "box": Int, "dia": Cl, "K": Know, "Khat": KHat}
_MODAL_TOKENS = {"<": (Diamond, ">"), "[": (BoxPdl, "]"), "O": (Next, "]")}


def _error_at(text: str, pos: int, message: str, cls: type = ParseError) -> ParseError:
    """The error at offset pos of text; only errors work out lines and columns."""
    return cls(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) per token, ending with an eof token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise _error_at(text, pos, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            if kind in ("upper", "op") or kind == "name" and value in _RESERVED:
                kind = value
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


_TOO_DEEP = f"formula nests deeper than {MAX_NESTING} levels"


def _chain_cap(links: int) -> None:
    """Refuse an operator chain (or prefix list) once its own ``links``
    operators nest it deeper than the cap, before its rest is parsed."""
    if links >= MAX_NESTING:
        raise ParseError(_TOO_DEEP)


class _Parser:
    """Recursive descent that recurses only into brackets, whose nesting it
    caps; operator chains are parsed by loops, which refuse a chain as soon as
    it alone nests deeper than the cap.  Each production returns a plain node,
    which knows its own AST depth, and ``finish`` caps the root's."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            got = tok[1] or "end of input"
            raise _error_at(self.text, tok[2], f"expected {what}, found {got!r}")
        return self.advance()

    def bracketed(self, inner: Callable[[], T], close: str) -> T:
        """Parse inside an already consumed opening bracket, up to ``close``."""
        pos = self.peek()[2]
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _error_at(self.text, pos, f"brackets nest deeper than {MAX_NESTING} levels")
        result = inner()
        self.expect(close, f"'{close}'")
        self.depth -= 1
        return result

    def right_chain(self, operand: Callable[[], Node], op: str, cls: type) -> Node:
        parts = [operand()]
        while self.at(op):
            self.advance()
            _chain_cap(len(parts))
            parts.append(operand())
        f = parts.pop()
        while parts:
            f = cls(parts.pop(), f)
        return f

    def formula(self) -> Formula:
        return self.right_chain(self.implication, "<->", Iff)

    def implication(self) -> Formula:
        return self.right_chain(self.disjunction, "->", Implies)

    def disjunction(self) -> Formula:
        f = self.conjunction()
        links = 0
        while self.at("|"):
            self.advance()
            links += 1
            _chain_cap(links)
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        links = 0
        while self.at("&"):
            self.advance()
            links += 1
            _chain_cap(links)
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        wrappers: list[tuple[type, Program | None]] = []  # (class, its program)
        while True:
            _chain_cap(len(wrappers))
            kind = self.peek()[0]
            if kind in _PREFIX_TOKENS:
                self.advance()
                wrappers.append((_PREFIX_TOKENS[kind], None))
                continue
            if kind not in _MODAL_TOKENS:
                break
            self.advance()
            if kind == "O":
                self.expect("[", "'[' after 'O'")
            cls, close = _MODAL_TOKENS[kind]
            wrappers.append((cls, self.bracketed(self.program, close)))
        f = self.primary()
        for cls, prog in reversed(wrappers):
            f = cls(f) if prog is None else cls(prog, f)
        return f

    def primary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "top":
            self.advance()
            return Top()
        if kind == "name":
            self.advance()
            return Atom(value)
        if kind == "(":
            self.advance()
            return self.bracketed(self.formula, ")")
        got = value or "end of input"
        raise _error_at(self.text, pos, f"expected a formula, found {got!r}")

    def program(self) -> Program:
        p = self.program_term()
        links = 0
        while self.at(";"):
            self.advance()
            links += 1
            _chain_cap(links)
            p = Seq(p, self.program_term())
        return p

    def program_term(self) -> Program:
        kind, value, pos = self.peek()
        if kind == "name":
            self.advance()
            return Atomic(value)
        if kind == "?":
            self.advance()
            self.expect("(", "'(' after '?'")
            body = self.bracketed(self.formula, ")")
            try:
                return Test(body)
            except FragmentViolation as exc:
                message = exc.args[0].split(" (line")[0]
                raise _error_at(self.text, pos, message, FragmentViolation) from None
        if kind == "(":
            self.advance()
            return self.bracketed(self.program, ")")
        got = value or "end of input"
        raise _error_at(self.text, pos, f"expected a program, found {got!r}")

    def finish(self, rule: Callable[[], Node]) -> Node:
        """Run rule over the whole text; a call stack too deep for it is an input error."""
        try:
            node = rule()
        except RecursionError:
            raise ParseError("brackets nest too deeply to parse at this call depth") from None
        tok = self.peek()
        if tok[0] != "eof":
            raise _error_at(self.text, tok[2], f"unexpected trailing input {tok[1]!r}")
        if node._height > MAX_NESTING:
            raise ParseError(_TOO_DEEP)
        return node


def parse(text: str) -> Formula:
    p = _Parser(text)
    return p.finish(p.formula)


def parse_program(text: str) -> Program:
    p = _Parser(text)
    return p.finish(p.program)


# --- JSON views --------------------------------------------------------------

_CLASSES = {cls._tag: cls for cls in (
    Atom, Top, Not, And, Or, Implies, Iff, Diamond, BoxPdl, Int, Cl, Know, KHat, Next,
    Atomic, Seq, Test,
)}
_JSON_NAMES = {"prog": "program"}  # JSON keys that differ from field names


def formula_to_json(f: Node) -> dict:
    """JSON view of a formula or program."""

    def visit(node: Node, kids: list) -> dict:
        out = {"type": node._tag}
        if type(node) is Atom or type(node) is Atomic:
            out["name"] = node.name
        out.update((_JSON_NAMES.get(field, field), kid) for field, kid in zip(node._fields, kids))
        return out

    return fold(f, visit)


def _from_json(obj: dict, kind: type) -> Node:
    cls = _CLASSES.get(obj.get("type"))
    if cls is None or not issubclass(cls, kind):
        raise ValueError(f"unknown {kind.__name__.lower()} node: {obj.get('type')!r}")
    if cls is Atom or cls is Atomic:
        return cls(obj["name"])
    wanted = [Program if field == "prog" or cls is Seq else Formula for field in cls._fields]
    return cls(*[_from_json(obj[_JSON_NAMES.get(f, f)], w) for f, w in zip(cls._fields, wanted)])


def formula_from_json(obj: dict) -> Formula:
    return _from_json(obj, Formula)


def program_from_json(obj: dict) -> Program:
    return _from_json(obj, Program)
