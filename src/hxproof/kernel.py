"""Trusted proof kernel: sequents, the rule table, derivation checking.

Trusted is what `check_derivation` runs: `Sequent`, `RULES` with its
templates, `evidence` and `premises`, each with its memo (`Step` fills the
premiss memo too), `thaw_inst` and `Derivation`. The forward constructors
`axiom`, `infer`, `cut`, `weaken` and `sequent` (with `freeze_inst`) stay
beside them: each checks the one node it builds, the criterion tests and the
benchmark's generator import them from here, and the benchmark's tracer
rebinds them. Search builds its steps with `Step`. Rule-table readers and
tree builders (`decompose`, `dual`, `graft`, `weaken_to`, ...) live in
`derived`, and this module re-checks what they build.

Sequents are pairs of finite sets of restricted node expressions (everything
is @-prefixed or an atomic comparison between two jumps). Each logical rule
is one record of `RULES`, read backward: `premises(goal, rule, inst)` checks
that `inst` binds exactly the rule's metavariables with values of their
kinds (by class, as expressions are well formed when built), enforces the
shape and freshness side conditions, and returns the premiss sequents.
`check_derivation` re-verifies every node of a tree and reports every failure
as a `Violation`, so trees built through the forward constructors can never
be unsound. A node whose conclusion is not a `Sequent`, whose rule is not a
str or whose instantiation is not a tuple of distinct (metavariable, value)
pairs is a violation as well, never an exception. A `Sequent`'s sides are
frozensets whose members were checked when it was built, so a premiss's
sets are trusted as they are: `_premiss` checks only what a rule adds, and
a Cut's conclusion checks only its cut formula.

Each node's premisses are computed once and kept in one memo of the last
PREMISES_MEMO_SIZE (256) answers, keyed on (conclusion, rule, frozen
instantiation): `premises_memo`, a plain `OrderedDict`. Search makes each
backward step as a `Step`, which computes the step's premisses, and builds
the node of each step its proof uses with `Step.node`, which keeps them
under the frozen instantiation that the node records; `axiom` keeps each
leaf's the same way. A step of a search branch that fails is neither frozen
nor kept. The checker, `infer`, the derived-rule macros, the JSON reader
and writer and cut elimination's permutations read the memo through
`premises_of`, which computes and keeps an answer it misses. So `prove`'s
check of the tree its search built, and the writer, reader and checker
after it, compute no premisses, and a file read and then checked computes
each node's premisses once. Entries leave oldest first, whether or not they
were read: on the benchmark's workloads that gives the same hits as least
recently used order, without hashing the key again on each read. On a tree
of more than 256 logical nodes, entries leave before they are read.

Sharing the memo is sound, whoever computed an entry, because each entry is
what `premises` returned for its key and `premises` is a pure function of
the key. Only `_keep` writes the memo, called by `premises_of` and
`Step.node`; a `Step` holds its own copy of the instantiation `premises`
read and freezes that copy into the key, and no code assigns its fields.
Sequents are immutable, and expressions, comparison kinds and names compare
as values of their own class only (interned expressions and enum members by
identity). Only successes are stored, so a failing instance raises on every
call, and every check still compares the node's own children with the
stored premisses, so a warm memo vouches for no child. A key that cannot be
hashed (a malformed instantiation) is computed without the memo, so checking
stays total. Whatever changes `RULES` must call `premises_memo.clear()`.

Comparison evidence has a memo of its own: `evidence_memo` keeps the last
EVIDENCE_MEMO_SIZE (1,024) terms `evidence` built, keyed on (i, alpha, x),
oldest first. The CmpL and CmpR templates (so the checker and cut
elimination), search's witness finder and `derived.transfer` read it
through `evidence`, so a process builds each key once, not once per
`prove` call. Sharing it is sound, whoever filled an entry: evidence is a
pure function of its arguments, names and interned paths, and an entry is
the interned term a fresh build returns.
"""

from __future__ import annotations

import reprlib
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from types import SimpleNamespace

from .syntax import (
    At, Bottom, BOT, CmpKind, Compare, Diamond, Implies, Jump, Nominal,
    NodeExpr, PathExpr, Prop, TOP, dia, print_node,
)
# not called here, but perfbench's tracer rebinds `kernel.nominals_of`
from .syntax import nominals_of  # noqa: F401


class KernelError(Exception):
    pass


class ShapeViolation(KernelError):
    """A sequent member or instantiation breaks the restricted form."""


class PrincipalMissing(KernelError):
    """The instantiated principal expression is absent from the goal."""


class SideConditionViolated(KernelError):
    """A freshness or form side condition fails."""


# ---------------------------------------------------------------------------
# Sequents
# ---------------------------------------------------------------------------

def is_restricted(e):
    """Members must look like @_i phi or <i: ^c j:>."""
    # keyword and empty patterns skip `__match_args__`; every built sequent
    # member passes through here
    match e:
        case At():
            return True
        case Compare(left=Jump(), right=Jump()):
            return True
        case _:
            return False


def _check_members(es):
    for e in es:
        if not is_restricted(e):
            raise ShapeViolation(
                f"not a restricted sequent member: {print_node(e)}")


class _kept:
    """A read-only attribute computed on first use and kept in the instance's
    `__dict__`, where later reads find it first. `functools.cached_property`
    does the same, but before Python 3.12 its first read takes a lock."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        v = obj.__dict__[self.name] = self.compute(obj)
        return v


@dataclass(frozen=True)
class Sequent:
    """Antecedent and consequent sets; the hash, the sorted members and the
    nominals are computed on first use and kept."""

    ante: frozenset
    cons: frozenset

    def __post_init__(self):
        if type(self.ante) is not frozenset or type(self.cons) is not frozenset:
            raise ShapeViolation("sequent sides must be frozensets")
        _check_members(self.ante)
        _check_members(self.cons)

    def add_ante(self, *es):
        return _premiss(self.ante, self.cons, es, ())

    def add_cons(self, *es):
        return _premiss(self.ante, self.cons, (), es)

    def drop_ante(self, *es):
        return _premiss(self.ante - set(es), self.cons, (), ())

    def drop_cons(self, *es):
        return _premiss(self.ante, self.cons - set(es), (), ())

    def issubset(self, other):
        return self.ante <= other.ante and self.cons <= other.cons

    _hash = None  # not a field: the instance's own value shadows it

    def __hash__(self):
        """The generated hash's value, computed on first use and kept, also
        on sequents that `_premiss` builds without `__init__`. Not a
        `cached_property`: before Python 3.12 its first read takes a lock."""
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash((self.ante, self.cons))
        return h

    @_kept
    def sorted_ante(self):
        """The antecedent as a tuple in print-key order."""
        return tuple(sorted(self.ante, key=attrgetter("key")))

    @_kept
    def sorted_cons(self):
        """The consequent as a tuple in print-key order."""
        return tuple(sorted(self.cons, key=attrgetter("key")))

    @_kept
    def _noms(self):
        return frozenset().union(*(e.noms for e in self.ante),
                                 *(e.noms for e in self.cons))

    def nominals(self):
        """The nominals of every member, as a new set."""
        return set(self._noms)

    def __str__(self):
        lhs = ", ".join(map(print_node, self.sorted_ante))
        rhs = ", ".join(map(print_node, self.sorted_cons))
        return f"{lhs} |- {rhs}".strip()


def sequent(ante=(), cons=()):
    return Sequent(frozenset(ante), frozenset(cons))


def _premiss(ante, cons, add_ante, add_cons):
    """The sequent ante, add_ante |- cons, add_cons, where `ante` and `cons`
    are parts of a `Sequent`, or subsets of them, whose members were checked
    when it was built: only the added formulas are checked here. A side
    that gains nothing is the given frozenset itself, not a copy."""
    s = object.__new__(Sequent)
    # the frozen class's `__setattr__` refuses; the fields live in `__dict__`
    fields = s.__dict__
    if add_ante:
        _check_members(add_ante)
        ante = ante.union(add_ante)
    if add_cons:
        _check_members(add_cons)
        cons = cons.union(add_cons)
    fields["ante"], fields["cons"] = ante, cons
    return s


# ---------------------------------------------------------------------------
# Rule identifiers and metavariables
# ---------------------------------------------------------------------------

AX, BOT_RULE = "Ax", "Bot"
IMP_L, IMP_R = "ImpL", "ImpR"
AT_T, AT_5, NOM, S1, S2, S3 = "AtT", "At5", "Nom", "S1", "S2", "S3"
AT_L, AT_R, DIA_L, DIA_R, CMP_L, CMP_R = "AtL", "AtR", "DiaL", "DiaR", "CmpL", "CmpR"
EQ_T, EQ_5, NEQ_L, NEQ_R = "EqT", "Eq5", "NEqL", "NEqR"
CUT, WL, WR = "Cut", "WL", "WR"
OPEN = "Open"  # open fragment leaf, never accepted by a closed check

STRUCTURAL_RULES = (CUT, WL, WR)

# Every metavariable name has one kind, shared by all rules and by the JSON
# encoding of instantiations.
METAVAR_KINDS = {
    "i": "nominal", "j": "nominal", "k": "nominal",
    "a": "modality", "c": "comparison", "kind": "cmpkind",
    "alpha": "path", "beta": "path", "phi": "node", "psi": "node",
}

# The class of each kind's values. Expressions are well formed when they are
# built, so a value's class is its whole check.
_KIND_CLASS = {
    "nominal": str, "modality": str, "comparison": str, "cmpkind": CmpKind,
    "path": PathExpr, "node": NodeExpr,
}


def _check_inst(r, inst):
    """The instantiation binds exactly the metavariables of the record `r`,
    each to a value of its kind."""
    if inst.keys() != r.names:
        raise ShapeViolation(
            f"instantiation must bind exactly {' '.join(r.metavars)}, "
            f"not {' '.join(sorted(map(str, inst)))}")
    for m, cls in r.classes:
        v = inst[m]
        if not isinstance(v, cls):
            raise ShapeViolation(
                f"metavariable {m} is not a {METAVAR_KINDS[m]}: {v!r}")


def ax_shape(e):
    """(Ax) closes only on @_i p, @_i j, or <i: =c j:>."""
    match e:
        case At(body=Prop() | Nominal()):
            return True
        case Compare(left=Jump(), kind=CmpKind.EQ, right=Jump()):
            return True
        case _:
            return False


def s1_shape(phi):
    """(S1) substitutes only atoms: p, bottom, or <a>k."""
    match phi:
        case Prop() | Bottom() | Diamond(body=Nominal()):
            return True
        case _:
            return False


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One logical rule, read backward from its conclusion.

    `metavars` and `eigens` are given as space-separated names. Templates
    are functions of the instantiation, whose metavariables are attributes.
    `principal` must occur on `side` of the conclusion and is dropped from
    every premiss when `consumes`; each `required` formula must occur in the
    antecedent and is kept. Each entry of `premisses` gives the (antecedent,
    consequent) formulas that premiss adds. The `eigens` must be pairwise
    distinct and absent from the conclusion, and each (metavariable, test,
    description) in `shape` is a form condition on one value. `names` (the
    metavariables as a frozenset) and `classes` (each metavariable with the
    class of its kind's values) are built once, for `_check_inst`.
    """

    metavars: tuple
    principal: object = None
    side: str = "ante"
    consumes: bool = False
    required: tuple = ()
    premisses: tuple = ()
    eigens: tuple = ""
    shape: tuple = ()
    names: frozenset = field(init=False, repr=False, compare=False)
    classes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        metavars = tuple(self.metavars.split())
        object.__setattr__(self, "metavars", metavars)
        object.__setattr__(self, "eigens", tuple(self.eigens.split()))
        object.__setattr__(self, "names", frozenset(metavars))
        object.__setattr__(self, "classes", tuple(
            (m, _KIND_CLASS[METAVAR_KINDS[m]]) for m in metavars))


def _alias(i, j):
    return At(i, Nominal(j))


def _eq(i, c, j):
    return Compare(Jump(i), CmpKind.EQ, c, Jump(j))


def _imp(v):
    return At(v.i, Implies(v.phi, v.psi))


def _at_at(v):
    return At(v.j, At(v.i, v.phi))


def _neq(v):
    return Compare(Jump(v.i), CmpKind.NEQ, v.c, Jump(v.j))


def _dia(v):
    return At(v.i, Diamond(v.a, v.phi))


def _cmp(v):
    return At(v.i, Compare(v.alpha, v.kind, v.c, v.beta))


EVIDENCE_MEMO_SIZE = 1024

# (i, alpha, x) -> evidence(i, alpha, x), for the last EVIDENCE_MEMO_SIZE
# keys built, oldest first
evidence_memo = OrderedDict()


def evidence(i, alpha, x):
    """The path evidence @i <alpha> x of a comparison, normalized while its
    head allows: a leading jump is absorbed into the index (@i @m psi is
    @m psi) and a leading eps is dropped (@i (true & psi) is @i psi).

    CmpL adds this formula and CmpR requires it. For jumps and eps followed
    by at most one step it is an atom (an alias or a modal step) that other
    rules put in an antecedent, so such comparisons need no cut. Each key
    is built once while `evidence_memo` keeps it; a key that cannot be
    hashed is built without the memo.
    """
    try:
        if (got := evidence_memo.get(key := (i, alpha, x))) is not None:
            return got
    except TypeError:
        key = None
    body = dia(alpha, Nominal(x))
    while True:
        match body:
            case At(nom=m, body=psi):
                i, body = m, psi
            case Implies(
                    lhs=Implies(lhs=t, rhs=Implies(lhs=psi, rhs=Bottom())),
                    rhs=Bottom()) if t == TOP:
                body = psi
            case _:
                got = At(i, body)
                if key is not None:
                    evidence_memo[key] = got
                    if len(evidence_memo) > EVIDENCE_MEMO_SIZE:
                        evidence_memo.popitem(last=False)
                return got


def _ev_alpha(v):
    return evidence(v.i, v.alpha, v.j)


def _ev_beta(v):
    return evidence(v.i, v.beta, v.k)


RULES = {
    AX: Rule("phi", principal=lambda v: v.phi, side="cons",
             required=(lambda v: v.phi,),
             shape=(("phi", ax_shape, "axiom expression has the wrong form"),)),
    BOT_RULE: Rule("i", principal=lambda v: At(v.i, BOT)),
    IMP_L: Rule("i phi psi", principal=_imp, consumes=True,
                premisses=(lambda v: ([], [At(v.i, v.phi)]),
                           lambda v: ([At(v.i, v.psi)], []))),
    IMP_R: Rule("i phi psi", principal=_imp, side="cons", consumes=True,
                premisses=(lambda v: ([At(v.i, v.phi)], [At(v.i, v.psi)]),)),
    AT_T: Rule("i", premisses=(lambda v: ([_alias(v.i, v.i)], []),)),
    AT_5: Rule("i j k",
               required=(lambda v: _alias(v.i, v.j), lambda v: _alias(v.i, v.k)),
               premisses=(lambda v: ([_alias(v.j, v.k)], []),)),
    NOM: Rule("i j", eigens="j",
              premisses=(lambda v: ([_alias(v.i, v.j)], []),)),
    S1: Rule("i j phi",
             required=(lambda v: _alias(v.i, v.j), lambda v: At(v.i, v.phi)),
             premisses=(lambda v: ([At(v.j, v.phi)], []),),
             shape=(("phi", s1_shape, "S1 body must be p, false, or <a>k"),)),
    S2: Rule("i j k a",
             required=(lambda v: _alias(v.j, v.k),
                       lambda v: At(v.i, Diamond(v.a, Nominal(v.j)))),
             premisses=(lambda v: ([At(v.i, Diamond(v.a, Nominal(v.k)))], []),)),
    S3: Rule("i j k c",
             required=(lambda v: _alias(v.i, v.j), lambda v: _eq(v.i, v.c, v.k)),
             premisses=(lambda v: ([_eq(v.j, v.c, v.k)], []),)),
    AT_L: Rule("i j phi", principal=_at_at, consumes=True,
               premisses=(lambda v: ([At(v.i, v.phi)], []),)),
    AT_R: Rule("i j phi", principal=_at_at, side="cons", consumes=True,
               premisses=(lambda v: ([], [At(v.i, v.phi)]),)),
    DIA_L: Rule("i a phi j", principal=_dia, consumes=True, eigens="j",
                premisses=(lambda v: ([At(v.i, Diamond(v.a, Nominal(v.j))),
                                       At(v.j, v.phi)], []),)),
    DIA_R: Rule("i a phi j", principal=_dia, side="cons",
                required=(lambda v: At(v.i, Diamond(v.a, Nominal(v.j))),),
                premisses=(lambda v: ([], [At(v.j, v.phi)]),)),
    CMP_L: Rule("i alpha beta kind c j k", principal=_cmp, consumes=True,
                eigens="j k",
                premisses=(lambda v: (
                    [_ev_alpha(v), _ev_beta(v),
                     Compare(Jump(v.j), v.kind, v.c, Jump(v.k))], []),)),
    CMP_R: Rule("i alpha beta kind c j k", principal=_cmp, side="cons",
                required=(_ev_alpha, _ev_beta),
                premisses=(lambda v: (
                    [], [Compare(Jump(v.j), v.kind, v.c, Jump(v.k))]),)),
    EQ_T: Rule("i c", premisses=(lambda v: ([_eq(v.i, v.c, v.i)], []),)),
    EQ_5: Rule("i j k c",
               required=(lambda v: _eq(v.i, v.c, v.j), lambda v: _eq(v.i, v.c, v.k)),
               premisses=(lambda v: ([_eq(v.j, v.c, v.k)], []),)),
    NEQ_L: Rule("i j c", principal=_neq, consumes=True,
                premisses=(lambda v: ([], [_eq(v.i, v.c, v.j)]),)),
    NEQ_R: Rule("i j c", principal=_neq, side="cons", consumes=True,
                premisses=(lambda v: ([_eq(v.i, v.c, v.j)], []),)),
}

LOGICAL_RULES = tuple(RULES)
# the metavariables of an Open leaf and of a structural rule, for `_check_inst`
_OPEN_RECORD, _PHI_RECORD = Rule(""), Rule("phi")
COMPARISON_RULES = frozenset(n for n, r in RULES.items() if "c" in r.metavars)


def instance(rule, inst):
    """The table record of a logical rule and its checked instantiation."""
    r = RULES.get(rule)
    if r is None:
        if rule in STRUCTURAL_RULES:
            raise KernelError(f"{rule} is applied forward; use cut()/weaken()")
        raise KernelError(f"unknown rule: {rule}")
    _check_inst(r, inst)
    return r, SimpleNamespace(**inst)


def premises(goal, rule, inst):
    """Backward reading of a rule: the premiss sequents of `goal`.

    `inst` maps the schema metavariables to concrete symbols/expressions.
    Structural rules are forward-only; ask `cut`/`weaken` instead.
    """
    r, v = instance(rule, inst)
    for m, ok, what in r.shape:
        if not ok(inst[m]):
            raise SideConditionViolated(f"{what}: {print_node(inst[m])}")
    ante, cons = goal.ante, goal.cons
    if r.principal is not None:
        p = r.principal(v)
        if p not in (ante if r.side == "ante" else cons):
            raise PrincipalMissing(
                f"{rule} principal not in {r.side}: {print_node(p)}")
        if r.consumes and r.side == "ante":
            ante = ante - {p}
        elif r.consumes:
            cons = cons - {p}
    for t in r.required:
        e = t(v)
        if e not in goal.ante:
            raise PrincipalMissing(
                f"{rule} needs in the antecedent: {print_node(e)}")
    if r.eigens:
        fresh = [inst[m] for m in r.eigens]
        if len(set(fresh)) != len(fresh):
            raise SideConditionViolated("eigen-nominals must differ")
        clash = goal._noms.intersection(fresh)
        if clash:
            raise SideConditionViolated(
                f"nominal(s) {sorted(clash)} occur in the conclusion")
    out = []
    for t in r.premisses:
        out.append(_premiss(ante, cons, *t(v)))
    return out


PREMISES_MEMO_SIZE = 256

# (conclusion, rule, frozen instantiation) -> premiss tuple, for the last
# PREMISES_MEMO_SIZE answers computed, oldest first
premises_memo = OrderedDict()


def premises_of(goal, rule, inst):
    """The premisses of a frozen instantiation: from the memo, or computed
    and kept. A key that cannot be hashed is computed without the memo,
    and `premises` then raises for the bad value."""
    key = goal, rule, inst
    try:
        got = premises_memo.get(key)
    except TypeError:
        return tuple(premises(goal, rule, thaw_inst(inst)))
    if got is None:
        return _keep(key, tuple(premises(goal, rule, thaw_inst(inst))))
    return got


def _keep(key, got):
    """Store the premisses `got` of `key`, dropping the memo's oldest entry
    past the bound; returns them."""
    premises_memo[key] = got
    if len(premises_memo) > PREMISES_MEMO_SIZE:
        premises_memo.popitem(last=False)
    return got


class Step:
    """One backward step of `rule` from `goal` under the instantiation
    `inst`, a mapping: building it computes the premiss tuple `premisses`,
    and raises unless the rule applies. The step holds its own copy of the
    instantiation, the one `premises` read, and nothing assigns its fields
    afterwards. The copy is frozen only when the step is kept, so a step of
    a search branch that fails is never frozen or kept."""

    __slots__ = ("goal", "rule", "premisses", "_inst")

    def __init__(self, goal, rule, inst):
        self.goal, self.rule, self._inst = goal, rule, dict(inst)
        self.premisses = tuple(premises(goal, rule, self._inst))

    def node(self, children):
        """The step's derivation node over `children`. Its premisses are
        kept in the memo first, under the frozen instantiation the node
        records, so checking the node reads them."""
        inst = freeze_inst(self._inst)
        _keep((self.goal, self.rule, inst), self.premisses)
        return Derivation(self.goal, self.rule, inst, children)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

def freeze_inst(inst):
    return tuple(sorted(inst.items()))


def thaw_inst(inst):
    """The dict of a frozen instantiation; ShapeViolation unless `inst` is a
    tuple of (metavariable, value) pairs with distinct metavariables."""
    if type(inst) is tuple:
        for pair in inst:
            if type(pair) is not tuple:
                break
        else:
            try:
                out = dict(inst)
            except (TypeError, ValueError):    # not a pair, or unhashable
                pass
            else:
                if len(out) == len(inst):      # no metavariable twice
                    return out
    raise ShapeViolation(f"instantiation is not a tuple of distinct "
                         f"(metavariable, value) pairs: {reprlib.repr(inst)}")


class Derivation:
    """A sequent-labeled tree; every node records its full rule instance,
    its height and the number of cuts in its subtree. A node is a value:
    nothing changes its fields once it is built. They are slots, set by a
    plain `__init__`, which builds a node in less than half the time that a
    frozen dataclass takes. No other layer keeps anything on a node."""

    __slots__ = ("conclusion", "rule", "inst", "children", "height", "cuts")

    def __init__(self, conclusion, rule, inst, children=()):
        self.conclusion = conclusion
        self.rule = rule
        self.inst = inst
        self.children = children
        if not children:
            self.height = 1
            self.cuts = int(rule == CUT)
        elif len(children) == 1:
            self.height = children[0].height + 1
            self.cuts = children[0].cuts + (rule == CUT)
        else:
            self.height = 1 + max([c.height for c in children])
            self.cuts = sum([c.cuts for c in children]) + (rule == CUT)

    def __repr__(self):
        return (f"Derivation({self.conclusion!r}, {self.rule!r}, "
                f"{self.inst!r}, <{len(self.children)} children>)")

    def __eq__(self, other):
        """Equal conclusions, rules, instantiations and children, compared
        over an explicit stack, so at any height."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a.rule != b.rule or a.inst != b.inst
                    or a.conclusion != b.conclusion
                    or len(a.children) != len(b.children)):
                return False
            stack += zip(a.children, b.children)
        return True

    def __hash__(self):
        """The root's hash alone, so at any height; equal trees have equal
        roots."""
        return hash((self.conclusion, self.rule, self.inst))

    @property
    def inst_dict(self):
        return thaw_inst(self.inst)

    def walk(self):
        """(where, node) for every node, in preorder, over an explicit
        stack, so at any height and in time linear in the nodes. `where`
        is () at the root and (child index, the parent's `where`) below
        it; `path_of` spells it out as a path."""
        stack = [((), self)]
        while stack:
            where, node = stack.pop()
            yield where, node
            for t in reversed(range(len(node.children))):
                stack.append(((t, where), node.children[t]))

    @staticmethod
    def path_of(where):
        """The path of child indices from the root that a `where` of
        `walk` stands for."""
        path = []
        while where:
            t, where = where
            path.append(t)
        return tuple(reversed(path))

    def rules_used(self):
        return {node.rule for _, node in self.walk()}


def axiom(rule, conclusion, inst):
    """A closed leaf; raises unless the axiom schema applies. Its (empty)
    premisses are kept in the memo, so checking the leaf reads them."""
    step = Step(conclusion, rule, inst)
    if step.premisses:
        raise KernelError(f"{rule} is not an axiom")
    return step.node(())


def infer(rule, conclusion, inst, children):
    """One backward rule application, verified against the schema."""
    frozen = freeze_inst(inst)
    want = premises_of(conclusion, rule, frozen)
    got = tuple(c.conclusion for c in children)
    if want != got:
        raise KernelError(
            f"{rule} premiss mismatch:\n  want {[str(s) for s in want]}\n"
            f"  got  {[str(s) for s in got]}")
    return Derivation(conclusion, rule, frozen, tuple(children))


def _cut_conclusion(left, right, phi):
    """The conclusion of a Cut on `phi`, built as `_premiss` builds one: the
    premisses' members were checked when their sequents were built."""
    if not is_restricted(phi):
        raise ShapeViolation(f"cut expression not restricted: {print_node(phi)}")
    lhs, rhs = _premiss_sequent(left), _premiss_sequent(right)
    if phi not in lhs.cons:
        raise KernelError(f"cut expression missing on the left: {print_node(phi)}")
    if phi not in rhs.ante:
        raise KernelError(f"cut expression missing on the right: {print_node(phi)}")
    return _premiss(lhs.ante | (rhs.ante - {phi}), (lhs.cons - {phi}) | rhs.cons,
                    (), ())


def _premiss_sequent(d):
    """The conclusion of the premiss `d`, which a structural rule reads."""
    if not isinstance(d.conclusion, Sequent):
        raise ShapeViolation(f"a premiss's conclusion is not a Sequent: "
                             f"{reprlib.repr(d.conclusion)}")
    return d.conclusion


def cut(left, right, phi):
    """(Cut): from Γ ⊢ Δ, φ and φ, Γ' ⊢ Δ' conclude Γ, Γ' ⊢ Δ, Δ'."""
    return Derivation(_cut_conclusion(left, right, phi), CUT,
                      freeze_inst({"phi": phi}), (left, right))


def weaken(d, side, phi):
    """(WL)/(WR): add φ on one side; a duplicate still records the step."""
    if not is_restricted(phi):
        raise ShapeViolation(f"weakened expression not restricted: {print_node(phi)}")
    if side == "left":
        return Derivation(d.conclusion.add_ante(phi), WL,
                          freeze_inst({"phi": phi}), (d,))
    if side == "right":
        return Derivation(d.conclusion.add_cons(phi), WR,
                          freeze_inst({"phi": phi}), (d,))
    raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def weakening_ok(node, phi):
    child = _premiss_sequent(node.children[0])
    if node.rule == WL:
        return (node.conclusion.ante == child.ante | {phi}
                and node.conclusion.cons == child.cons)
    return (node.conclusion.cons == child.cons | {phi}
            and node.conclusion.ante == child.ante)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    path: tuple
    message: str

    def __str__(self):
        where = "/".join(map(str, self.path)) or "root"
        return f"[{where}] {self.message}"


def check_derivation(d, allow_open=False):
    """Re-verify every node, in the preorder of `Derivation.walk`; returns a
    list of violations (empty = ok). The loop is `walk`'s, written out, as
    a generator resumed per node made the check about 8% slower; a node's
    path is spelt out (`Derivation.path_of`) only when it reports a
    violation, so the check is linear in the nodes at any height."""
    out = []
    stack = [((), d)]
    while stack:
        where, node = stack.pop()
        try:
            _check_node(node, allow_open)
        except KernelError as e:
            out.append(Violation(Derivation.path_of(where), str(e)))
        for t in reversed(range(len(node.children))):
            stack.append(((t, where), node.children[t]))
    return out


def _check_node(node, allow_open):
    conclusion, rule = node.conclusion, node.rule
    if not isinstance(conclusion, Sequent):
        raise ShapeViolation(f"conclusion is not a Sequent: "
                             f"{reprlib.repr(conclusion)}")
    if not isinstance(rule, str):
        raise KernelError(f"rule is not a str: {reprlib.repr(rule)}")
    if rule == OPEN:
        if not allow_open:
            raise KernelError("open leaf in a closed derivation")
        if node.children:
            raise KernelError("open leaf with children")
        _check_inst(_OPEN_RECORD, node.inst_dict)
        return
    if rule in STRUCTURAL_RULES:
        inst = node.inst_dict
        _check_inst(_PHI_RECORD, inst)
        if rule == CUT:
            if len(node.children) != 2:
                raise KernelError("Cut needs exactly two premisses")
            if _cut_conclusion(*node.children, inst["phi"]) != conclusion:
                raise KernelError("Cut conclusion does not match its premisses")
            return
        if len(node.children) != 1:
            raise KernelError("weakening needs exactly one premiss")
        if not weakening_ok(node, inst["phi"]):
            raise KernelError("weakening conclusion does not match its premiss")
        return
    want = premises_of(conclusion, rule, node.inst)
    got = tuple([c.conclusion for c in node.children])
    if want != got:
        raise KernelError(
            f"{rule} premisses do not match: want "
            f"{[str(s) for s in want]}, got {[str(s) for s in got]}")
