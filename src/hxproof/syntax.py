"""Abstract syntax, concrete grammar, and basic term operations.

Path and node expressions are mutually recursive immutable trees. ASTs store
primitives only: the surface syntax accepts the usual sugar (true, ~, &, |,
<->, eps, [a]phi, [a =c b], <path>phi for composite paths) and expands it at
parse time. Symbols live in four disjoint spaces: propositions, nominals,
modalities, comparisons.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, Union


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

    def flip(self):
        return CmpKind.NEQ if self is CmpKind.EQ else CmpKind.EQ


@dataclass(frozen=True)
class Atom:
    """Atomic modality step (an accessibility relation symbol)."""
    mod: str


@dataclass(frozen=True)
class Jump:
    """Jump-to-key path `i:` resetting the path at the node named i."""
    nom: str


@dataclass(frozen=True)
class Test:
    """Test path `phi?`: stay put, require phi."""
    __test__ = False  # keep pytest from collecting this class
    body: "NodeExpr"


@dataclass(frozen=True)
class Concat:
    """Binary path composition; n-ary paths are right-nested chains."""
    left: "PathExpr"
    right: "PathExpr"


PathExpr = Union[Atom, Jump, Test, Concat]


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Nominal:
    name: str


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Implies:
    lhs: "NodeExpr"
    rhs: "NodeExpr"


@dataclass(frozen=True)
class At:
    """Satisfaction operator @_i phi: evaluate phi at the node named i."""
    nom: str
    body: "NodeExpr"


@dataclass(frozen=True)
class Diamond:
    """Existential step along an atomic modality."""
    mod: str
    body: "NodeExpr"


@dataclass(frozen=True)
class Compare:
    """Data comparison <alpha =c beta> / <alpha !=c beta> (existential)."""
    left: PathExpr
    kind: CmpKind
    cmp: str
    right: PathExpr


NodeExpr = Union[Prop, Nominal, Bottom, Implies, At, Diamond, Compare]

BOT = Bottom()


# ---------------------------------------------------------------------------
# Sugar constructors (all expand to primitives)
# ---------------------------------------------------------------------------

def top():
    return Implies(BOT, BOT)


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


def atomic_cmp(i, kind, cmp_sym, j):
    """The restricted comparison <i: ^c j:> between two named nodes."""
    return Compare(Jump(i), kind, cmp_sym, Jump(j))


ABBREVIATIONS = {
    "top": (0, lambda: top()),
    "not": (1, neg),
    "or": (2, disj),
    "and": (2, conj),
    "iff": (2, iff),
    "eps": (0, lambda: eps()),
    "jump_dia": (2, lambda nom, phi: At(nom, phi)),
    "test_dia": (2, lambda psi, phi: conj(psi, phi)),
    "concat_dia": (3, lambda a, b, phi: dia(Concat(a, b), phi)),
    "box": (2, box),
    "box_cmp": (4, box_cmp),
}


def expand_abbrev(name, *args):
    """Expand a named abbreviation to its primitive form."""
    try:
        arity, fn = ABBREVIATIONS[name]
    except KeyError:
        raise ValueError(f"unknown abbreviation: {name}") from None
    if len(args) != arity:
        raise ValueError(f"{name} expects {arity} argument(s), got {len(args)}")
    return fn(*args)


# ---------------------------------------------------------------------------
# Term measures and traversals
# ---------------------------------------------------------------------------

def size(e):
    """Structural size; composition contributes no node of its own."""
    match e:
        case Prop() | Nominal() | Bottom() | Atom() | Jump():
            return 1
        case Implies(lhs, rhs):
            return 1 + size(lhs) + size(rhs)
        case At(_, body) | Diamond(_, body) | Test(body):
            return 1 + size(body)
        case Compare(left, _, _, right):
            return 1 + size(left) + size(right)
        case Concat(left, right):
            return size(left) + size(right)
    raise TypeError(f"not an expression: {e!r}")


def is_node_expr(e):
    """True iff e is a well-formed node expression with string symbols."""
    match e:
        case Prop(str()) | Nominal(str()) | Bottom():
            return True
        case Implies(lhs, rhs):
            return is_node_expr(lhs) and is_node_expr(rhs)
        case At(str(), body) | Diamond(str(), body):
            return is_node_expr(body)
        case Compare(left, CmpKind(), str(), right):
            return is_path_expr(left) and is_path_expr(right)
    return False


def is_path_expr(p):
    """True iff p is a well-formed path expression with string symbols."""
    match p:
        case Atom(str()) | Jump(str()):
            return True
        case Test(body):
            return is_node_expr(body)
        case Concat(left, right):
            return is_path_expr(left) and is_path_expr(right)
    return False


def subexpressions(e) -> Iterator:
    """Yield e and every subexpression (paths and nodes alike)."""
    yield e
    match e:
        case Implies(lhs, rhs) | Concat(lhs, rhs):
            yield from subexpressions(lhs)
            yield from subexpressions(rhs)
        case At(_, body) | Diamond(_, body) | Test(body):
            yield from subexpressions(body)
        case Compare(left, _, _, right):
            yield from subexpressions(left)
            yield from subexpressions(right)
        case _:
            pass


def nominals_of(e):
    """All nominals occurring syntactically (as Nominal, At index, or Jump)."""
    out = set()
    for sub in subexpressions(e):
        match sub:
            case Nominal(name) | Jump(name):
                out.add(name)
            case At(nom, _):
                out.add(nom)
            case _:
                pass
    return out


def prop_symbols_of(e):
    return {s.name for s in subexpressions(e) if isinstance(s, Prop)}


def mod_symbols_of(e):
    out = set()
    for sub in subexpressions(e):
        match sub:
            case Atom(mod) | Diamond(mod, _):
                out.add(mod)
            case _:
                pass
    return out


def cmp_symbols_of(e):
    return {s.cmp for s in subexpressions(e) if isinstance(s, Compare)}


def rename_nominal(e, old, new):
    """Replace every occurrence of nominal `old` by `new`."""
    if old == new:
        return e
    r = lambda x: rename_nominal(x, old, new)
    match e:
        case Nominal(name):
            return Nominal(new) if name == old else e
        case Jump(nom):
            return Jump(new) if nom == old else e
        case Prop() | Bottom() | Atom():
            return e
        case Implies(lhs, rhs):
            return Implies(r(lhs), r(rhs))
        case At(nom, body):
            return At(new if nom == old else nom, r(body))
        case Diamond(mod, body):
            return Diamond(mod, r(body))
        case Test(body):
            return Test(r(body))
        case Concat(left, right):
            return Concat(r(left), r(right))
        case Compare(left, kind, cmp_sym, right):
            return Compare(r(left), kind, cmp_sym, r(right))
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
    """Interned symbol spaces plus a fresh-nominal counter.

    Fresh nominals come from the reserved `_n<k>` namespace, disjoint from
    anything registered, so freshness side conditions are decidable locally.
    """

    SPACES = ("prop", "nom", "mod", "cmp")

    def __init__(self):
        self.space = {}
        self._fresh_counter = 0

    def register(self, name, space):
        if space not in self.SPACES:
            raise ValueError(f"unknown symbol space {space!r}")
        prior = self.space.get(name)
        if prior is not None and prior != space:
            raise SymbolSpaceError(
                f"symbol {name!r} used as both {prior} and {space}")
        self.space[name] = space
        if space == "nom" and name.startswith(FRESH_PREFIX):
            tail = name[len(FRESH_PREFIX):]
            if tail.isdigit():
                self._fresh_counter = max(self._fresh_counter, int(tail) + 1)
        return name

    def register_expr(self, e):
        """Intern every symbol occurring in an expression."""
        for sub in subexpressions(e):
            match sub:
                case Prop(name):
                    self.register(name, "prop")
                case Nominal(name) | Jump(name):
                    self.register(name, "nom")
                case At(nom, _):
                    self.register(nom, "nom")
                case Diamond(mod, _) | Atom(mod):
                    self.register(mod, "mod")
                case Compare(_, _, cmp_sym, _):
                    self.register(cmp_sym, "cmp")
                case _:
                    pass
        return e

    def fresh(self):
        """A nominal not occurring in anything registered so far."""
        while True:
            cand = f"{FRESH_PREFIX}{self._fresh_counter}"
            self._fresh_counter += 1
            if cand not in self.space:
                self.register(cand, "nom")
                return cand


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

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

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


def _sugar_view(e):
    """Classify an Implies node into its sweetest printable form."""
    # order matters: top < iff < and < or < box/boxcmp < neg < plain
    if e == top():
        return ("top",)
    if isinstance(e, Implies) and e.rhs == BOT:
        inner = e.lhs
        if isinstance(inner, Implies) and isinstance(inner.rhs, Implies) \
                and inner.rhs.rhs == BOT:
            a, b = inner.lhs, inner.rhs.lhs
            # iff is a conjunction of two converse implications
            if isinstance(a, Implies) and isinstance(b, Implies) \
                    and a.lhs == b.rhs and a.rhs == b.lhs:
                return ("iff", a.lhs, a.rhs)
            return ("and", a, b)
        if isinstance(inner, Compare):
            return ("boxcmp", inner.left, inner.kind.flip(), inner.cmp, inner.right)
        if isinstance(inner, Diamond) and isinstance(inner.body, Implies) \
                and inner.body.rhs == BOT:
            return ("box", inner.mod, inner.body.lhs)
        return ("neg", inner)
    if isinstance(e, Implies) and isinstance(e.lhs, Implies) and e.lhs.rhs == BOT:
        return ("or", e.lhs.lhs, e.rhs)
    return None


def print_node(e, prec=0):
    """Canonical text form; parse_node(print_node(e)) == e."""
    match e:
        case Prop(name) | Nominal(name):
            return name
        case Bottom():
            return "false"
        case At(nom, body):
            return f"@{nom} {print_node(body, _PREC_UNARY)}"
        case Diamond(mod, body):
            return f"<{mod}>{print_node(body, _PREC_UNARY)}"
        case Compare(left, kind, cmp_sym, right):
            op = "=" if kind is CmpKind.EQ else "!="
            return f"<{print_path(left)} {op}{cmp_sym} {print_path(right)}>"
        case Implies(lhs, rhs):
            view = _sugar_view(e)
            match view:
                case ("top",):
                    return "true"
                case ("iff", a, b):
                    s = f"{print_node(a, _PREC_IMP)} <-> {print_node(b, _PREC_IMP)}"
                    return f"({s})" if prec > _PREC_IFF else s
                case ("and", a, b):
                    s = f"{print_node(a, _PREC_UNARY)} & {print_node(b, _PREC_AND)}"
                    return f"({s})" if prec > _PREC_AND else s
                case ("or", a, b):
                    s = f"{print_node(a, _PREC_AND)} | {print_node(b, _PREC_OR)}"
                    return f"({s})" if prec > _PREC_OR else s
                case ("boxcmp", alpha, kind, cmp_sym, beta):
                    op = "=" if kind is CmpKind.EQ else "!="
                    return f"[{print_path(alpha)} {op}{cmp_sym} {print_path(beta)}]"
                case ("box", mod, body):
                    return f"[{mod}]{print_node(body, _PREC_UNARY)}"
                case ("neg", inner):
                    return f"~{print_node(inner, _PREC_UNARY)}"
            s = f"{print_node(lhs, _PREC_IMP + 1)} -> {print_node(rhs, _PREC_IMP)}"
            return f"({s})" if prec > _PREC_IMP else s
    raise TypeError(f"not a node expression: {e!r}")


def print_path(p):
    match p:
        case Atom(mod):
            return mod
        case Jump(nom):
            return f"{nom}:"
        case Test(body):
            if body == top():
                return "eps"
            if isinstance(body, (Prop, Nominal, Bottom)):
                return f"({print_node(body)}?)"
            return f"(({print_node(body)})?)"
        case Concat(left, right):
            ls = print_path(left)
            if isinstance(left, Concat):
                ls = f"({ls})"
            return f"{ls} {print_path(right)}"
    raise TypeError(f"not a path: {p!r}")
