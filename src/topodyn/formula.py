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
O(1) whatever the depth.  ``postorder`` lists a formula's node objects,
children first, without recursion; the folds below (substitution, printing,
the JSON view) are one loop over that list, so none of them recurses.
The parser builds equal subterms once: within one ``parse``, and across
the formulas ``parse_formulas`` reads with one table, they are one object.

Concrete syntax (ASCII): atoms are ``[a-z][a-z0-9_]*``; ``box``, ``dia`` and
``top`` are reserved words.  Unary modalities bind tighter than ``&``, which
binds tighter than ``|``, then ``->`` (right associative), then ``<->``.
``;`` in programs is left associative, and between formulas of a list
separates them.  Parsed formulas nest at most ``MAX_NESTING`` levels,
counting both AST depth and open brackets.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import islice
from operator import is_
from typing import Callable, Mapping, Optional, TypeVar

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
    children's."""

    __slots__ = ("children", "name", "_hash", "_in", "_depth", "_height")
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


# --- traversal and folds ---------------------------------------------------------


def postorder(f: Node) -> list[Node]:
    """Each node object of f once, programs and test bodies included,
    children before parents and the root last; listed without recursion."""
    if not isinstance(f, Node):
        raise TypeError(f"not a formula: {f!r}")
    out: list[Node] = []
    seen: set[int] = set()
    stack = [f]
    while stack:
        n = stack.pop()
        if n is None:  # the children of the node below it are listed
            out.append(stack.pop())
        elif id(n) not in seen:
            seen.add(id(n))
            stack += (n, None, *reversed(n.children))
    return out


T = TypeVar("T")


def fold(f: Node, visit: Callable[[Node, list], T]) -> T:
    """Bottom-up value of f: ``visit(node, values of its children)`` runs once
    per node object, children first."""
    vals: dict[int, T] = {}
    for node in postorder(f):
        val = vals[id(node)] = visit(node, [vals[id(c)] for c in node.children])
    return val


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


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(n.name for n in postorder(f) if type(n) is Atom)


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Uniform substitution of atoms.  Reaches into test bodies; substituting
    a knowledge formula into a test raises FragmentViolation, as it must."""
    return fold(f, lambda n, kids: mapping.get(n.name, n) if type(n) is Atom else n.rebuild(kids))


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

# one token per match, after any blanks: a name, an operator, or any other
# character, which is an error
_TOKEN_RE = re.compile(r"\s*([a-z][a-z0-9_]*|<->|->|Khat|[KO~&|<>\[\]();?]|\S)")
# the kind of every token with a fixed spelling or of one character: a
# one-letter name's is ``name``, any other's itself; longer names are not listed
_KINDS = {tok: tok for tok in ("<->", "->", "Khat", "K", "O", *"~&|<>[]();?", *_RESERVED)}
_KINDS.update((c, "name") for c in "abcdefghijklmnopqrstuvwxyz")

_PREFIX_TOKENS = {"~": Not, "box": Int, "dia": Cl, "K": Know, "Khat": KHat}
_MODAL_TOKENS = {"<": (Diamond, ">"), "[": (BoxPdl, "]"), "O": (Next, "]")}
# connective -> (binding level, class, whether it associates to the left),
# read off the printer's table so that both agree
_BINARY_TOKENS = {sym.strip(): (prec, cls, right > left)
                  for cls, (sym, prec, left, right) in _INFIX.items()}
_NO_LINKS = (0,) * len(_BINARY_TOKENS)  # one count per level


def _error_at(text: str, pos: int, message: str, cls: type = ParseError) -> ParseError:
    """The error at offset pos of text; only errors work out lines and columns."""
    return cls(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _offset(text: str, k: int) -> int:
    """Offset in text of its token k, found by scanning again; past the last
    token, the end of the text (where the eof token is)."""
    m = next(islice(_TOKEN_RE.finditer(text), k, None), None)
    return len(text) if m is None else m.start(1)


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the values of the tokens of text, each list ending with
    the eof token's; a name's kind is ``name``."""
    values = _TOKEN_RE.findall(text)
    kinds = list(map(_KINDS.get, values))
    if None in kinds:  # a longer name, or a character that starts no token
        for k, value in enumerate(values):
            if kinds[k] is None:
                if len(value) == 1:
                    raise _error_at(text, _offset(text, k), f"unexpected character {value!r}")
                kinds[k] = "name"
    kinds.append("eof")
    values.append("")
    return kinds, values


_TOO_DEEP = f"formula nests deeper than {MAX_NESTING} levels"


def _chain_cap(links: int) -> None:
    """Refuse an operator chain (or prefix list) once its own ``links``
    operators nest it deeper than the cap, before its rest is parsed."""
    if links >= MAX_NESTING:
        raise ParseError(_TOO_DEEP)


class _Parser:
    """Recursive descent that recurses only into brackets, whose nesting it
    caps: a bracket level costs three frames (``formula``, ``unary``,
    ``bracketed``).  Within a level, ``formula`` reduces the binary
    connectives in one precedence loop and ``unary`` gathers the prefix
    operators in another; each refuses a chain as soon as it alone nests
    deeper than the cap.  Each production returns a node, which knows its
    own AST depth, and ``root`` caps a root's.  Every node is built through
    ``table``, a leaf keyed by its class and name (``leaf``), any other node
    by its class and its children's ids (``node``), so equal subterms parsed
    with one table are one object.  Tokens carry no offsets: an error scans
    the text again for its token's."""

    def __init__(self, text: str, table: dict):
        self.text = text
        self.kinds, self.values = _tokenize(text)
        self.pos = 0  # index of the next token
        self.depth = 0
        self.table = table

    def leaf(self, cls: type, *name: str) -> Node:
        """The table's leaf of class cls (named name, if cls has names)."""
        key = (cls, *name)
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = cls(*name)
        return node

    def node(self, cls: type, a: Node, b: Optional[Node] = None) -> Node:
        """The table's node of class cls over children a (and b).  They are
        the table's own nodes, which it keeps alive, so their ids name them
        and the key hashes no subterm."""
        key = (cls, id(a)) if b is None else (cls, id(a), id(b))
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = cls(a) if b is None else cls(a, b)
        return node

    def error(self, k: int, message: str, cls: type = ParseError) -> ParseError:
        return _error_at(self.text, _offset(self.text, k), message, cls)

    def unexpected(self, what: str) -> ParseError:
        got = self.values[self.pos] or "end of input"
        return self.error(self.pos, f"expected {what}, found {got!r}")

    def expect(self, kind: str, what: str) -> None:
        if self.kinds[self.pos] != kind:
            raise self.unexpected(what)
        self.pos += 1

    def bracketed(self, inner: Callable[[], T], close: str) -> T:
        """Parse inside an already consumed opening bracket, up to ``close``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(self.pos, f"brackets nest deeper than {MAX_NESTING} levels")
        result = inner()
        self.expect(close, f"'{close}'")
        self.depth -= 1
        return result

    def formula(self) -> Formula:
        """Unary operands joined by ``& | -> <->``: a connective first reduces
        the pending ones that bind tighter, and a left-associative one those
        of its own level."""
        kinds = self.kinds
        operands = [self.unary()]
        pending: list[tuple[int, type, bool]] = []  # connectives not yet reduced
        links = list(_NO_LINKS)  # per level, connectives of the chain open there
        while True:
            op = _BINARY_TOKENS.get(kinds[self.pos])
            if op is None:
                break
            self.pos += 1
            level = op[0]
            while pending and (pending[-1][0] > level or pending[-1][0] == level and op[2]):
                right = operands.pop()
                operands[-1] = self.node(pending.pop()[1], operands[-1], right)
            links[level + 1:] = _NO_LINKS[level + 1:]  # the tighter chains ended
            links[level] += 1
            _chain_cap(links[level])
            pending.append(op)
            operands.append(self.unary())
        while pending:
            right = operands.pop()
            operands[-1] = self.node(pending.pop()[1], operands[-1], right)
        return operands[0]

    def unary(self) -> Formula:
        """Prefix operators and modalities, then an atom, ``top`` or a
        bracketed formula."""
        kinds = self.kinds
        wrappers: list[tuple[type, Program | None]] = []  # (class, its program)
        while True:
            _chain_cap(len(wrappers))
            kind = kinds[self.pos]
            cls = _PREFIX_TOKENS.get(kind)
            if cls is not None:
                self.pos += 1
                wrappers.append((cls, None))
                continue
            modal = _MODAL_TOKENS.get(kind)
            if modal is None:
                break
            self.pos += 1
            if kind == "O":
                self.expect("[", "'[' after 'O'")
            cls, close = modal
            wrappers.append((cls, self.bracketed(self.program, close)))
        if kind == "name":
            f = self.leaf(Atom, self.values[self.pos])
            self.pos += 1
        elif kind == "top":
            f = self.leaf(Top)
            self.pos += 1
        elif kind == "(":
            self.pos += 1
            f = self.bracketed(self.formula, ")")
        else:
            raise self.unexpected("a formula")
        for cls, prog in reversed(wrappers):
            f = self.node(cls, f) if prog is None else self.node(cls, prog, f)
        return f

    def program(self) -> Program:
        p = self.program_term()
        links = 0
        while self.kinds[self.pos] == ";":
            self.pos += 1
            links += 1
            _chain_cap(links)
            p = self.node(Seq, p, self.program_term())
        return p

    def program_term(self) -> Program:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "name":
            self.pos += 1
            return self.leaf(Atomic, self.values[pos])
        if kind == "?":
            self.pos += 1
            self.expect("(", "'(' after '?'")
            body = self.bracketed(self.formula, ")")
            try:
                return self.node(Test, body)
            except FragmentViolation as exc:
                message = exc.args[0].split(" (line")[0]
                raise self.error(pos, message, FragmentViolation) from None
        if kind == "(":
            self.pos += 1
            return self.bracketed(self.program, ")")
        raise self.unexpected("a program")

    def root(self, rule: Callable[[], Node], end: str = "eof") -> Node:
        """Run rule up to an ``end`` token or the end of the text, and cap
        the AST depth of the node it returns."""
        node = rule()
        kind = self.kinds[self.pos]
        if kind != end and kind != "eof":
            raise self.error(self.pos, f"unexpected trailing input {self.values[self.pos]!r}")
        if node._height > MAX_NESTING:
            raise ParseError(_TOO_DEEP)
        return node

    def roots(self) -> list[Formula]:
        """The formulas between the ``;`` tokens outside brackets, in order;
        no formula comes of a blank piece."""
        kinds, out = self.kinds, []
        while True:
            while kinds[self.pos] == ";":
                self.pos += 1
            if kinds[self.pos] == "eof":
                return out
            out.append(self.root(self.formula, ";"))

    def finish(self, rule: Callable[..., T], *args) -> T:
        """Run rule over the whole text; a call stack too deep for it is an input error."""
        try:
            return rule(*args)
        except RecursionError:
            raise ParseError("brackets nest too deeply to parse at this call depth") from None


def parse(text: str) -> Formula:
    p = _Parser(text, {})
    return p.finish(p.root, p.formula)


def parse_formulas(text: str, table: dict) -> list[Formula]:
    """The formulas of a ``;``-separated list, blank pieces skipped; a ``;``
    inside ``<a;b>`` or ``O[a;?(p)]`` belongs to its program.  Every node is
    built through table, so equal subterms across the list, and across the
    lists parsed with one table, are one object.  An error's line and
    column count from the start of text."""
    p = _Parser(text, table)
    return p.finish(p.roots)


def parse_program(text: str) -> Program:
    p = _Parser(text, {})
    return p.finish(p.root, p.program)


# --- JSON views --------------------------------------------------------------

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
