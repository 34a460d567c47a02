"""Abstract syntax, concrete grammar, and basic term operations.

Path and node expressions are mutually recursive immutable trees. ASTs store
primitives only: the surface syntax accepts the usual sugar (true, ~, &, |,
<->, eps, [a]phi, [a =c b], <path>phi for composite paths) and expands it at
parse time. Symbols live in four disjoint spaces: propositions, nominals,
modalities, comparisons.

Expressions are hash-consed (Filliâtre & Conchon 2006, "Type-safe modular
hash-consing"): building one returns the one existing object equal to it, so
equality is identity, and an expression hashes by that identity, in the
interpreter's own `object.__hash__`. A distinct expression is made once, and
then keeps its canonical print key and its set of nominals, so a formula
shared by many sequents is printed and scanned once; proof search keeps a
member's index role on it the same way. The intern table holds its objects
weakly, so memory stays bounded by the expressions in use. Every expression
is in the table: a constructor checks each field against the sort its
annotation names (a string symbol, a comparison kind, a node or a path
expression) the one time a distinct expression is made, and raises TypeError
for a field of the wrong sort or one that cannot be hashed. So an expression
is well formed by construction, and the kernel checks a value's kind by its
class alone.
"""

from __future__ import annotations

import enum
import re
import weakref
from dataclasses import dataclass
from typing import Iterator, get_args, get_type_hints


class SyntaxError_(Exception):
    """Parse failure, with a character position when available."""

    def __init__(self, message, pos=None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at column {pos})")


class SymbolSpaceError(Exception):
    """One identifier used in two disjoint symbol spaces."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class CmpKind(enum.Enum):
    EQ = "eq"
    NEQ = "neq"

    # each kind is one object, so it hashes by identity, without the
    # Python-level `Enum.__hash__`
    __hash__ = object.__hash__

    def flip(self):
        return CmpKind.NEQ if self is CmpKind.EQ else CmpKind.EQ


# (class, *fields) -> the one object with that content
_INTERNED = weakref.WeakValueDictionary()


class Expr:
    """Base of the AST classes: construction goes through the intern table.

    The subclasses are frozen dataclasses without generated `__init__` or
    `__eq__`: `__new__` sets the fields, the dataclass gives `repr` and
    `__match_args__`, and equality is the default identity, and so is the
    hash: interning makes equal expressions one object. Their fields are
    slots, like the caches here: an instance with a `__dict__` beside slots
    reads its fields more slowly in every `match`. `key` is the canonical
    print key (`print_node` at precedence 0, or `print_path`), `noms` the
    frozenset of nominals occurring in the expression, and `_level` the
    highest precedence at which a node prints without parentheses (None for
    paths). `role` is None until proof search first indexes the expression
    as a sequent member, and then holds what the member gives the index
    (`search._role`), which refers to no expression containing this one.
    """

    __slots__ = ("key", "noms", "_level", "role", "__weakref__")

    def __new__(cls, *fields):
        ident = (cls, *fields)
        try:
            # a hit reads the table's dict of weak references directly,
            # skipping the Python-level WeakValueDictionary.get
            ref = _INTERNED.data.get(ident)
        except TypeError:
            raise TypeError(f"{cls.__name__} field cannot be hashed: "
                            f"{fields!r}") from None
        if ref is not None:
            e = ref()
            if e is not None:
                return e
        return _intern(cls, fields, ident)

    __hash__ = object.__hash__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


def _intern(cls, fields, ident):
    """The new expression of `cls` holding `fields`, with its caches set and
    entered in the table; TypeError for a field of the wrong sort."""
    sorts = _SORTS[cls]
    if len(fields) != len(sorts):
        raise TypeError(f"{cls.__name__} takes {len(sorts)} field(s), "
                        f"got {len(fields)}")
    e = object.__new__(cls)
    setattr_ = object.__setattr__
    for (name, sort), value in zip(sorts, fields):
        if not isinstance(value, sort):
            raise TypeError(f"{cls.__name__}.{name} must be "
                            f"{' | '.join(c.__name__ for c in sort)}, "
                            f"not {value!r}")
        setattr_(e, name, value)
    key, level = _render(e)
    setattr_(e, "key", key)
    setattr_(e, "noms", _nominals(e))
    setattr_(e, "_level", level)
    setattr_(e, "role", None)
    _INTERNED[ident] = e
    return e


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Atom(Expr):
    """Atomic modality step (an accessibility relation symbol)."""
    mod: str


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Jump(Expr):
    """Jump-to-key path `i:` resetting the path at the node named i."""
    nom: str


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Test(Expr):
    """Test path `phi?`: stay put, require phi."""
    __test__ = False  # keep pytest from collecting this class
    body: "NodeExpr"


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Concat(Expr):
    """Binary path composition; n-ary paths are right-nested chains."""
    left: "PathExpr"
    right: "PathExpr"


PathExpr = Atom | Jump | Test | Concat


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Prop(Expr):
    name: str


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Nominal(Expr):
    name: str


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Bottom(Expr):
    pass


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Implies(Expr):
    lhs: "NodeExpr"
    rhs: "NodeExpr"


@dataclass(frozen=True, eq=False, init=False, slots=True)
class At(Expr):
    """Satisfaction operator @_i phi: evaluate phi at the node named i."""
    nom: str
    body: "NodeExpr"


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Diamond(Expr):
    """Existential step along an atomic modality."""
    mod: str
    body: "NodeExpr"


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Compare(Expr):
    """Data comparison <alpha =c beta> / <alpha !=c beta> (existential)."""
    left: PathExpr
    kind: CmpKind
    cmp: str
    right: PathExpr


NodeExpr = Prop | Nominal | Bottom | Implies | At | Diamond | Compare


def _field_sorts(cls):
    """(name, classes of its sort) for each field of `cls`, read from the
    field annotations."""
    hints = get_type_hints(cls)
    return tuple((name, get_args(hints[name]) or (hints[name],))
                 for name in cls.__match_args__)


_SORTS = {cls: _field_sorts(cls) for cls in get_args(PathExpr | NodeExpr)}


# ---------------------------------------------------------------------------
# Sugar constructors (all expand to primitives)
# ---------------------------------------------------------------------------

def top():
    return TOP


def neg(phi):
    return Implies(phi, BOT)


def disj(phi, psi):
    return Implies(neg(phi), psi)


def conj(phi, psi):
    return neg(Implies(phi, neg(psi)))


def iff(phi, psi):
    return conj(Implies(phi, psi), Implies(psi, phi))


def eps():
    """The empty path: a test on the constant-true expression."""
    return Test(top())


def concat(*paths):
    """Right-nested composition of one or more paths."""
    if not paths:
        raise ValueError("concat needs at least one path")
    out = paths[-1]
    for p in reversed(paths[:-1]):
        out = Concat(p, out)
    return out


def dia(path, phi):
    """<alpha>phi for an arbitrary path, expanded to primitive form."""
    match path:
        case Atom(mod):
            return Diamond(mod, phi)
        case Jump(nom):
            return At(nom, phi)
        case Test(body):
            return conj(body, phi)
        case Concat(left, right):
            return dia(left, dia(right, phi))
    raise TypeError(f"not a path: {path!r}")


def box(path, phi):
    return neg(dia(path, neg(phi)))


def box_cmp(alpha, kind, cmp_sym, beta):
    """[alpha ^ beta] := ~<alpha v beta> with the comparison flipped."""
    return neg(Compare(alpha, kind.flip(), cmp_sym, beta))


# ---------------------------------------------------------------------------
# Term measures and traversals
# ---------------------------------------------------------------------------

def size(e):
    """Structural size; composition contributes no node of its own."""
    match e:
        case Prop() | Nominal() | Bottom() | Atom() | Jump():
            return 1
        case Implies(lhs=lhs, rhs=rhs):
            return 1 + size(lhs) + size(rhs)
        case At(body=body) | Diamond(body=body) | Test(body=body):
            return 1 + size(body)
        case Compare(left=left, right=right):
            return 1 + size(left) + size(right)
        case Concat(left=left, right=right):
            return size(left) + size(right)
    raise TypeError(f"not an expression: {e!r}")


def subexpressions(e) -> Iterator:
    """Yield e and every distinct subexpression (paths and nodes alike)
    once, in preorder.

    The walk is over the shared DAG, not the tree: `<->` states each side
    twice, so a chain of nested `<->` is a tree exponential in its length.
    """
    seen, stack = {e}, [e]
    while stack:
        e = stack.pop()
        yield e
        match e:
            case Implies(lhs, rhs) | Concat(lhs, rhs) | \
                    Compare(lhs, _, _, rhs):
                children = (rhs, lhs)
            case At(_, body) | Diamond(_, body) | Test(body):
                children = (body,)
            case _:
                children = ()
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append(child)


def _nominals(e):
    """The nominal set of a newly made expression, from its children's."""
    match e:
        case Nominal(name=name) | Jump(nom=name):
            return frozenset((name,))
        case At(nom=nom, body=body):
            return body.noms | {nom}
        case Implies(lhs=lhs, rhs=rhs) | Concat(left=lhs, right=rhs) | \
                Compare(left=lhs, right=rhs):
            return lhs.noms | rhs.noms
        case Diamond(body=body) | Test(body=body):
            return body.noms
    return frozenset()


def nominals_of(e):
    """All nominals occurring syntactically (as Nominal, At index, or Jump).

    A new set each call; the expression's own cache is the frozenset `noms`.
    """
    return set(e.noms)


def rename_nominal(e, old, new):
    """Replace every occurrence of nominal `old` by `new`."""
    if old == new or old not in e.noms:
        return e
    match e:
        case Nominal(_):
            return Nominal(new)
        case Jump(_):
            return Jump(new)
        case Implies(lhs, rhs):
            return Implies(rename_nominal(lhs, old, new),
                           rename_nominal(rhs, old, new))
        case At(nom, body):
            return At(new if nom == old else nom, rename_nominal(body, old, new))
        case Diamond(mod, body):
            return Diamond(mod, rename_nominal(body, old, new))
        case Test(body):
            return Test(rename_nominal(body, old, new))
        case Concat(left, right):
            return Concat(rename_nominal(left, old, new),
                          rename_nominal(right, old, new))
        case Compare(left, kind, cmp_sym, right):
            return Compare(rename_nominal(left, old, new), kind, cmp_sym,
                           rename_nominal(right, old, new))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------

FRESH_PREFIX = "_n"
_NOMINAL_DEFAULT = re.compile(r"_*[i-n]([0-9_'].*)?$")


def looks_nominal(name):
    """Default symbol-space guess for bare identifiers in formula position.

    Identifiers whose first letter (underscores stripped) is i..n read as
    nominals, following the usual metavariable convention; everything else
    reads as a proposition. Registered tables override the guess.
    """
    return bool(_NOMINAL_DEFAULT.match(name))


class SymbolTable:
    """Interned symbol spaces."""

    SPACES = ("prop", "nom", "mod", "cmp")

    def __init__(self):
        self.space = {}

    def register(self, name, space):
        if space not in self.SPACES:
            raise ValueError(f"unknown symbol space {space!r}")
        prior = self.space.get(name)
        if prior is not None and prior != space:
            raise SymbolSpaceError(
                f"symbol {name!r} used as both {prior} and {space}")
        self.space[name] = space
        return name


def fresh_nominals(count, avoid):
    """Deterministic fresh nominals disjoint from the `avoid` collection."""
    avoid = set(avoid)
    out = []
    k = 0
    while len(out) < count:
        cand = f"{FRESH_PREFIX}{k}"
        k += 1
        if cand not in avoid:
            out.append(cand)
            avoid.add(cand)
    return out


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<cmp>!?=[A-Za-z_][A-Za-z0-9_']*)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<turnstile>\|-)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>[@<>\[\]()?:~&|,])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise SyntaxError_(f"unexpected character {text[i]!r}", i)
        i = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        toks.append(_Tok(kind, m.group(), m.start()))
    toks.append(_Tok("eof", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

KEYWORDS = {"true", "false", "eps"}


class _Parser:
    def __init__(self, toks, table):
        self.toks = toks
        self.i = 0
        self.table = table

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise SyntaxError_(f"expected {text!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    def fail(self, msg):
        t = self.peek()
        raise SyntaxError_(f"{msg}, found {t.text or 'end of input'!r}", t.pos)

    # -- symbol resolution ---------------------------------------------

    def _resolve_formula_ident(self, name):
        space = self.table.space.get(name)
        if space == "nom":
            return Nominal(name)
        if space == "prop":
            return Prop(name)
        if space in ("mod", "cmp"):
            raise SymbolSpaceError(f"symbol {name!r} used as both {space} and prop/nom")
        if looks_nominal(name):
            self.table.register(name, "nom")
            return Nominal(name)
        self.table.register(name, "prop")
        return Prop(name)

    # -- formulas --------------------------------------------------------

    def formula(self):
        lhs = self.imp()
        if self.peek().kind == "iff":
            self.next()
            rhs = self.formula()
            return iff(lhs, rhs)
        return lhs

    def imp(self):
        lhs = self.or_()
        if self.peek().kind == "imp":
            self.next()
            return Implies(lhs, self.imp())
        return lhs

    def or_(self):
        lhs = self.and_()
        if self.peek().text == "|":
            self.next()
            return disj(lhs, self.or_())
        return lhs

    def and_(self):
        lhs = self.unary()
        if self.peek().text == "&":
            self.next()
            return conj(lhs, self.and_())
        return lhs

    def unary(self):
        t = self.peek()
        if t.text == "~":
            self.next()
            return neg(self.unary())
        if t.text == "@":
            self.next()
            nom = self.next()
            if nom.kind != "ident" or nom.text in KEYWORDS:
                raise SyntaxError_("expected a nominal after '@'", nom.pos)
            self.table.register(nom.text, "nom")
            return At(nom.text, self.unary())
        if t.text == "<":
            self.next()
            return self.angle_body(close=">")
        if t.text == "[":
            self.next()
            return self.angle_body(close="]", boxed=True)
        return self.atom_formula()

    def atom_formula(self):
        t = self.next()
        if t.text == "false":
            return BOT
        if t.text == "true":
            return top()
        if t.kind == "ident":
            return self._resolve_formula_ident(t.text)
        if t.text == "(":
            phi = self.formula()
            self.expect(")")
            return phi
        raise SyntaxError_(f"expected a formula, found {t.text or 'end of input'!r}", t.pos)

    def angle_body(self, close, boxed=False):
        """Either a diamond/box <path>phi or a comparison <path ^c path>."""
        alpha = self.path()
        t = self.peek()
        if t.kind == "cmp":
            self.next()
            kind = CmpKind.NEQ if t.text.startswith("!") else CmpKind.EQ
            cmp_sym = t.text.lstrip("!=")
            self.table.register(cmp_sym, "cmp")
            beta = self.path()
            self.expect(close)
            if boxed:
                return box_cmp(alpha, kind, cmp_sym, beta)
            return Compare(alpha, kind, cmp_sym, beta)
        self.expect(close)
        body = self.unary()
        return box(alpha, body) if boxed else dia(alpha, body)

    # -- paths -----------------------------------------------------------

    PATH_STOP = {">", "]", ")", ",", "", "|-"}

    def path(self):
        atoms = [self.path_atom()]
        while True:
            t = self.peek()
            if t.kind in ("cmp", "eof") or t.text in self.PATH_STOP:
                break
            atoms.append(self.path_atom())
        return concat(*atoms)

    def path_atom(self):
        t = self.peek()
        if t.text == "eps":
            self.next()
            return eps()
        if t.text in ("true", "false"):
            self.next()
            self.expect("?")
            return Test(top() if t.text == "true" else BOT)
        if t.kind == "ident":
            self.next()
            if self.peek().text == ":":
                self.next()
                self.table.register(t.text, "nom")
                return Jump(t.text)
            if self.peek().text == "?":
                self.next()
                return Test(self._resolve_formula_ident(t.text))
            self.table.register(t.text, "mod")
            return Atom(t.text)
        if t.text == "(":
            # Group or test: find the matching ')' and look one token past it.
            depth = 0
            j = self.i
            while True:
                tj = self.toks[j]
                if tj.kind == "eof":
                    raise SyntaxError_("unbalanced '('", t.pos)
                if tj.text == "(":
                    depth += 1
                elif tj.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if self.toks[j + 1].text == "?":
                self.next()
                phi = self.formula()
                self.expect(")")
                self.expect("?")
                return Test(phi)
            self.next()
            inner = self.path()
            self.expect(")")
            return inner
        raise SyntaxError_(f"expected a path, found {t.text or 'end of input'!r}", t.pos)


def parse_node(text, table=None):
    """Parse a node expression; abbreviations expand to primitive form."""
    table = table if table is not None else SymbolTable()
    p = _Parser(_tokenize(text), table)
    phi = p.formula()
    if p.peek().kind != "eof":
        p.fail("trailing input")
    return phi


def parse_path(text, table=None):
    table = table if table is not None else SymbolTable()
    p = _Parser(_tokenize(text), table)
    alpha = p.path()
    if p.peek().kind != "eof":
        p.fail("trailing input")
    return alpha


def parse_sequent_parts(text, table=None):
    """Parse `phi, psi |- chi` into (antecedent list, consequent list)."""
    table = table if table is not None else SymbolTable()
    p = _Parser(_tokenize(text), table)

    def side(stop_kinds):
        out = []
        if p.peek().kind in stop_kinds:
            return out
        out.append(p.formula())
        while p.peek().text == ",":
            p.next()
            out.append(p.formula())
        return out

    ante = side({"turnstile"})
    if p.peek().kind != "turnstile":
        p.fail("expected '|-'")
    p.next()
    cons = side({"eof"})
    if p.peek().kind != "eof":
        p.fail("trailing input")
    return ante, cons


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5


def _render(e):
    """(print key, level) of a newly made expression, from its children's
    keys; the level of a node is the highest precedence at which it prints
    without parentheses, and None for a path."""
    match e:
        case Prop(name) | Nominal(name):
            return name, _PREC_UNARY
        case Bottom():
            return "false", _PREC_UNARY
        case At(nom, body):
            return f"@{nom} {print_node(body, _PREC_UNARY)}", _PREC_UNARY
        case Diamond(mod, body):
            return f"<{mod}>{print_node(body, _PREC_UNARY)}", _PREC_UNARY
        case Compare(left, kind, cmp_sym, right):
            op = "=" if kind is CmpKind.EQ else "!="
            return (f"<{print_path(left)} {op}{cmp_sym} {print_path(right)}>",
                    _PREC_UNARY)
        case Implies(lhs, rhs):
            # the sweetest printable form, tried in this order: true, <->,
            # &, [..] of a comparison, [a], ~, |, and last the plain ->
            if lhs is BOT and rhs is BOT:
                return "true", _PREC_UNARY
            if rhs is BOT:
                if isinstance(lhs, Implies) and isinstance(lhs.rhs, Implies) \
                        and lhs.rhs.rhs is BOT:
                    a, b = lhs.lhs, lhs.rhs.lhs
                    # iff is a conjunction of two converse implications
                    if isinstance(a, Implies) and isinstance(b, Implies) \
                            and a.lhs is b.rhs and a.rhs is b.lhs:
                        return (f"{print_node(a.lhs, _PREC_IMP)} <-> "
                                f"{print_node(a.rhs, _PREC_IMP)}", _PREC_IFF)
                    return (f"{print_node(a, _PREC_UNARY)} & "
                            f"{print_node(b, _PREC_AND)}", _PREC_AND)
                if isinstance(lhs, Compare):
                    # [alpha = beta] is ~<alpha != beta>
                    op = "!=" if lhs.kind is CmpKind.EQ else "="
                    return (f"[{print_path(lhs.left)} {op}{lhs.cmp} "
                            f"{print_path(lhs.right)}]", _PREC_UNARY)
                if isinstance(lhs, Diamond) and isinstance(lhs.body, Implies) \
                        and lhs.body.rhs is BOT:
                    body = print_node(lhs.body.lhs, _PREC_UNARY)
                    return f"[{lhs.mod}]{body}", _PREC_UNARY
                return f"~{print_node(lhs, _PREC_UNARY)}", _PREC_UNARY
            if isinstance(lhs, Implies) and lhs.rhs is BOT:
                return (f"{print_node(lhs.lhs, _PREC_AND)} | "
                        f"{print_node(rhs, _PREC_OR)}", _PREC_OR)
            return (f"{print_node(lhs, _PREC_IMP + 1)} -> "
                    f"{print_node(rhs, _PREC_IMP)}", _PREC_IMP)
        case Atom(mod):
            return mod, None
        case Jump(nom):
            return f"{nom}:", None
        case Test(body):
            if body is TOP:
                return "eps", None
            if isinstance(body, (Prop, Nominal, Bottom)):
                return f"({print_node(body)}?)", None
            return f"(({print_node(body)})?)", None
        case Concat(left, right):
            ls = print_path(left)
            if isinstance(left, Concat):
                ls = f"({ls})"
            return f"{ls} {print_path(right)}", None
    raise TypeError(f"not an expression: {e!r}")


def print_node(e, prec=0):
    """Canonical text form; parse_node(print_node(e)) is e."""
    if not isinstance(e, NodeExpr):
        raise TypeError(f"not a node expression: {e!r}")
    return e.key if prec <= e._level else f"({e.key})"


def print_path(p):
    if not isinstance(p, PathExpr):
        raise TypeError(f"not a path: {p!r}")
    return p.key


# Made last: building an expression renders it with the printer above.
BOT = Bottom()
TOP = Implies(BOT, BOT)
