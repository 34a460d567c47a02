"""Bounded backward proof search and the explicit rule inverses.

Every rule of the calculus is invertible, so the search never backtracks:
it decomposes with non-branching rules, branches only on left implications,
spends a fresh-nominal budget on left diamonds/comparisons, and enumerates
witnesses for the right rules. Termination of the calculus itself is open,
so exhaustion reports Unknown honestly. The closure rules (AtT, At5, S1,
S2, S3, EqT, Eq5) never saturate a branch: an atom holds modulo the classes
that the antecedent's aliases and equalities make, and where a step (Ax,
DiaR or CmpR) reads one that is not in the antecedent, the closure steps
that derive exactly that atom go on the branch right before it.
"""

from __future__ import annotations

from bisect import bisect, bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter

from .derived import (
    added, close_dual, decompose, dual, principal, required, weaken_to,
)
from .kernel import (
    AT_5, AT_T, AX, BOT_RULE, CMP_R, DIA_R, EQ_5, EQ_T, NEQ_L, NEQ_R, RULES,
    S1, S2, S3, Derivation, KernelError, Sequent, Step, ax_shape, axiom,
    check_derivation, cut, evidence, s1_shape, sequent,
)
# not called here, but perfbench's tracer rebinds `search.infer`
from .kernel import infer  # noqa: F401
from .model import HybridDataModel, check_sequent_validity, find_countermodel
from .syntax import (
    At, Bottom, CmpKind, Compare, Diamond, Implies, Jump, Nominal, Prop,
    fresh_nominals,
)

# Search makes each backward step that is not a leaf through this module
# attribute, which perfbench's tracer rebinds to count rule applications. A
# step of a branch that closes becomes its node through `Step.node`, which
# keeps the step's premisses in the kernel's memo for `prove`'s check; a
# step of a branch that fails keeps nothing.
premises = Step


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for backward search.

    `max_depth` counts decomposition, branching, fresh-nominal and DiaR
    witness steps along a branch. Closure steps, CmpR witness steps and
    NEqL/NEqR are free: a closure step is made only right before a step
    that reads the atom it adds, a CmpR instance fires at most once per
    pair of alias classes of the branch's finite nominals, and the NEq
    rules consume inequality atoms, which only the comparison rules add.

    With `enable_countermodel`, a failed search is answered first by the
    model that its failed branch describes (`_leaf_model`), which can have
    more nodes than `countermodel_nodes`; that bound limits only the
    enumeration (`find_countermodel`) that runs when this model does not
    refute the goal.
    """

    max_depth: int = 12
    max_fresh_nominals: int = 4
    enable_countermodel: bool = True
    countermodel_nodes: int = 3


@dataclass(frozen=True)
class Proved:
    derivation: Derivation
    status: str = "proved"


@dataclass(frozen=True)
class Refuted:
    model: HybridDataModel
    status: str = "refuted"


@dataclass(frozen=True)
class Unknown:
    report: dict = field(default_factory=dict)
    status: str = "unknown"


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------

class _Table(list):
    """Values in the print-key order of the members they came from; `keys`
    holds those members' print keys, in step, for the bisects."""

    __slots__ = ("keys",)

    def __init__(self, vals=(), keys=()):
        super().__init__(vals)
        self.keys = list(keys)

    def add(self, key, val):
        t = bisect(self.keys, key)
        self.keys.insert(t, key)
        self.insert(t, val)

    def drop(self, key):
        t = bisect_left(self.keys, key)
        del self.keys[t], self[t]

    def copy(self):
        return _Table(self, self.keys)


class _Classes(dict):
    """The classes of nominals that the antecedent's atoms make: a forest
    per relation r, None for the aliases @i j and a comparison symbol c for
    the equalities <i: =c j:> with the aliases. (r, n) -> (m, atom) links n
    to m by the atom that made the link, so a path explains why two
    nominals share a class; a root has no link and is the least nominal of
    its class. The c-forest is made from the alias links when the first
    c-equality enters (`syms` holds those c); until then c-equality is
    aliasing. No rule consumes an atom, so classes only grow on a branch."""

    __slots__ = ("syms",)

    def __init__(self, links=(), syms=frozenset()):
        super().__init__(links)
        self.syms = syms

    def copy(self):
        return _Classes(self, self.syms)

    def add(self, key, val):
        atom, r, i, j = val
        if r is not None and r not in self.syms:
            self.syms |= {r}
            for (s, n), (m, by) in list(self.items()):
                if s is None:
                    self._link(r, n, m, by)
        for s in (r,) if r is not None else (None, *self.syms):
            self._link(s, i, j, atom)

    def drop(self, key):
        """Nothing: only a sequent that lost an atom would drop one."""

    def root(self, r, n):
        r = r if r in self.syms else None
        while (up := self.get((r, n))) is not None:
            n = up[0]
        return n

    def same(self, r, i, j):
        return i == j or self.root(r, i) == self.root(r, j)

    def toward(self, r, i, j):
        """The first link (m, atom) on the forest path from i to j != i."""
        r, n = r if r in self.syms else None, j
        while (up := self.get((r, n))) is not None and up[0] != i:
            n = up[0]
        return (n, up[1]) if up is not None else self[r, i]

    def members(self, i, names):
        """i, then the other aliases of i among the sorted `names`."""
        yield i
        if self:
            r = self.root(None, i)
            yield from (n for n in names if n != i and self.root(None, n) == r)

    def _link(self, r, i, j, atom):
        # turn the path from i to its root round and hang i under j, i's
        # root being the greater one
        ri, rj = self.root(r, i), self.root(r, j)
        if ri != rj:
            if ri < rj:
                i, j = j, i
            while i is not None:
                old, self[r, i] = self.get((r, i)), (j, atom)
                j, (i, atom) = i, old or (None, None)


# the index's tables of values in member order, not keyed and keyed by name
_TABLES = ("ax", "bot", "ante_dec", "cons_dec", "branches", "fresh", "goals")
_KEYED = ("bodies_of",)
# where `_Index._enter` puts the member itself before the value, so that the
# role kept on a member does not refer to the member
_HOLD_MEMBER = ("ax", "goals", "classes")
_by_key = attrgetter("key")


def _route(rule):
    """How a member enters the index on `rule`'s side, by the rule's record."""
    r = RULES[rule]
    if r.eigens:
        cost = len(r.eigens)
        return lambda inst: ("fresh", None, (cost, rule, inst))
    if len(r.premisses) > 1:
        return lambda inst: ("branches", None, (rule, inst))
    if r.consumes:
        table = "ante_dec" if r.side == "ante" else "cons_dec"
        return lambda inst: (table, None, (rule, inst))
    return lambda inst: ("goals", None, (rule, inst))


_ROUTES = {rule: _route(rule) for rule in RULES if dual(rule)}


def _role(e):
    """What a member gives the index: the (table, name, value) entries it
    adds as an antecedent and as a consequent member (name None for a table
    that is not keyed). An atom is kept by name, and any other member is
    routed by its dual pair; search never applies DiaL to a step @i <a>k.
    No entry holds `e` itself (see `_HOLD_MEMBER`), and no instantiation
    is changed after it is made, since the role is kept on `e`."""
    ante, cons = [], ()
    match e:
        case At(nom=i, body=phi):
            match phi:
                case Nominal(name=k):
                    ante.append(("classes", None, (None, i, k)))
                case Bottom():
                    ante.append(("bot", None, (BOT_RULE, {"i": i})))
                case Diamond(body=Nominal()):
                    cons = _routed(e)[1]
                case Implies() | At() | Diamond() | Compare():
                    return _routed(e)
            if s1_shape(phi):
                ante.append(("bodies_of", i, phi))
        case Compare(left=Jump(nom=i), kind=kind, cmp=c, right=Jump(nom=j)):
            if kind is not CmpKind.EQ:
                return _routed(e)
            ante.append(("classes", None, (c, i, j)))
    if ax_shape(e):
        cons = (("ax", None, _query(e)),)
    return tuple(ante), cons


def _query(e):
    """How `_Index.holds` tests the atom `e`: (r, i, k) for an alias @i k
    (r None) or an equality <i: =c k:> (r c), (False, i, phi) for @i phi
    with phi p or a step <a>k; None for any other member."""
    match e:
        case At(nom=i, body=Nominal(name=k)):
            return None, i, k
        case Compare(left=Jump(nom=i), kind=CmpKind.EQ, cmp=c,
                     right=Jump(nom=k)):
            return c, i, k
        case At(nom=i, body=Prop() | Diamond(body=Nominal()) as phi):
            return False, i, phi
    return None


def _routed(e):
    """A compound member's role: one entry per side, sharing one instance."""
    (left, right), inst = decompose(e)
    return (_ROUTES[left](inst),), (_ROUTES[right](inst),)


class _Index:
    """What the move finders need of one sequent, kept up to date along a
    branch. `update` moves the index to the next sequent by the members it
    drops and adds; a left implication's left premiss gets a `copy`, and
    `_Index(seq)` is an empty index updated by the whole of seq. Each
    distinct member is matched once, by the first `prove` call that indexes
    it, and its role is kept on it (`Expr.role`, see `_role`); each table
    keeps its values in the print-key order of the members they came from.

    `closing` is Ax on the first consequent member of axiom shape (held in
    `ax` with its `_query`) in the antecedent, else Bot, else Ax on the
    first one that `holds`; `decomposition` is the first invertible
    non-branching decomposition (antecedent before consequent) and `branch`
    the first left implication, each a (rule, instantiation) pair or None.
    `fresh` holds (cost, rule, instantiation) for each left diamond or
    comparison, cost being the eigen-nominals it needs, left unbound, and
    `goals` (member, rule, instantiation) for each right diamond or
    comparison, its witnesses unbound. An instantiation is shared by the
    entries of one member in every `prove` call, so no finder changes it.
    The antecedent atoms are kept by name, so that a finder asks whether a
    candidate holds without building it: `classes` (see `_Classes`) holds
    the aliases and equalities, and `bodies_of[j]` each phi of an @j phi
    that S1 may substitute (p, false or a step <a>k). `noms` are the sorted
    nominals, kept exact by counting the member occurrences that hold each.
    """

    __slots__ = ("seq", "noms", "nom_count", "classes", *_TABLES, *_KEYED)

    def __init__(self, seq):
        self.seq = sequent()
        self.noms, self.nom_count = [], {}
        self.classes = _Classes()
        for name in _TABLES:
            setattr(self, name, _Table())
        for name in _KEYED:
            setattr(self, name, defaultdict(_Table))
        self.update(seq)

    def copy(self):
        c = object.__new__(type(self))
        c.seq = self.seq
        c.noms, c.nom_count = self.noms.copy(), self.nom_count.copy()
        c.classes = self.classes.copy()
        for name in _TABLES:
            setattr(c, name, getattr(self, name).copy())
        for name in _KEYED:
            setattr(c, name, defaultdict(_Table, {
                k: t.copy() for k, t in getattr(self, name).items()}))
        return c

    @property
    def closing(self):
        ante, cls = self.seq.ante, self.classes
        for e, *_ in self.ax:
            if e in ante:
                return AX, {"phi": e}
        if self.bot:
            return self.bot[0]
        for e, r, i, k in self.ax:
            # without links, only a reflexive atom holds beyond the literal
            if i == k or cls and self.holds(r, i, k):
                return AX, {"phi": e}
        return None

    @property
    def decomposition(self):
        t = self.ante_dec or self.cons_dec
        return t[0] if t else None

    @property
    def branch(self):
        return self.branches[0] if self.branches else None

    def holds(self, r, i, k):
        """Whether the atom whose `_query` is (r, i, k) holds modulo the
        classes: i and k share an r-class, or `holder` finds body k."""
        if r is False:
            return self.holder(i, k) is not None
        return self.classes.same(r, i, k)

    def holder(self, i, phi):
        """The first antecedent @n psi, as (n, psi), with n in the class of
        i (in `members` order, so holder(n, phi) is (n, psi) again) and psi
        the p phi is, or a step <a>m with m in the class of phi's target."""
        cls = self.classes
        for n in cls.members(i, self.noms):
            for psi in self.bodies_of.get(n, ()):
                if psi is phi or type(psi) is Diamond is type(phi) and \
                        psi.mod == phi.mod and \
                        cls.same(None, psi.body.name, phi.body.name):
                    return n, psi

    def update(self, seq):
        """Index `seq` in place of the sequent indexed so far; members enter
        in print-key order, so no forest depends on where they were made."""
        old = self.seq
        for side, was, now in ((0, old.ante, seq.ante),
                               (1, old.cons, seq.cons)):
            for e in was - now:
                self._enter(e, side, -1)
            new = now - was
            for e in sorted(new, key=_by_key) if len(new) > 1 else new:
                self._enter(e, side, 1)
        self.seq = seq

    def _enter(self, e, side, sign):
        """Add (sign 1) or remove (sign -1) one occurrence of member `e`."""
        key, role = e.key, e.role
        if role is None:
            # kept on the member for every later `prove` call
            role = _role(e)
            object.__setattr__(e, "role", role)
        for name, sub, val in role[side]:
            t = getattr(self, name)
            if sub is not None:
                t = t[sub]
            if sign < 0:
                t.drop(key)
            elif name in _HOLD_MEMBER:
                t.add(key, (e, *val))
            else:
                t.add(key, val)
        _count(self.nom_count, self.noms, e.noms, sign)


def _count(counts, present, names, sign):
    """Move each of `names` by `sign` in `counts`, keeping the sorted list
    `present` of the names counted above zero."""
    for n in names:
        c = counts.get(n, 0) + sign
        if c == 0:
            del counts[n]
            present.remove(n)
        else:
            if c == 1 and sign > 0:
                insort(present, n)
            counts[n] = c


def _derive(ix, e, made):
    """Enter in `made` (atom -> the move that adds it, in the order moves
    apply) the closure moves that add the atom `e`, which holds modulo the
    classes of `ix`, unless it is in the antecedent or `made`; each adds
    `e` or an atom a later move reads. The first link on the forest path
    from i to k explains @i k (At5) and <i: =c k:> (S3 across an alias, Eq5
    across an equality); S1 and S2 carry a body across aliases of its
    nominal and its step's target; AtT and EqT add @i i and <i: =c i:>."""
    if e in ix.seq.ante or e in made:
        return
    match e:
        case At(nom=i, body=Nominal(name=k)) if i == k:
            move = AT_T, {"i": i}
        case At(nom=i, body=Nominal(name=k)):
            n, _ = ix.classes.toward(None, i, k)
            move = AT_5, {"i": n, "j": i, "k": k}
        case Compare(left=Jump(nom=i), cmp=c, right=Jump(nom=k)) if i == k:
            move = EQ_T, {"i": i, "c": c}
        case Compare(left=Jump(nom=i), cmp=c, right=Jump(nom=k)):
            n, link = ix.classes.toward(c, i, k)
            move = (S3 if isinstance(link, At) else EQ_5,
                    {"i": n, "j": i, "k": k, "c": c})
        case At(nom=i, body=phi):
            n, psi = ix.holder(i, phi)
            move = (S1, {"i": n, "j": i, "phi": phi}) if n != i else (
                S2, {"i": i, "j": psi.body.name, "k": phi.body.name,
                     "a": phi.mod})
    for r in sorted(required(*move), key=_by_key):
        _derive(ix, r, made)
    made[e] = move


def _witness_move(ix, fired, dia_ok):
    """The first right witness step, as (rule, instantiation, key, reads):
    `fired` keys stop re-introduction loops, and `reads` are the antecedent
    atoms the step needs, which may hold only modulo the classes. DiaR
    candidates are skipped unless `dia_ok` (the depth bound allows them)."""
    cons, ante, cls = ix.seq.cons, ix.seq.ante, ix.classes
    for e, rule, inst in ix.goals:
        if rule == CMP_R:
            i, alpha, beta = inst["i"], inst["alpha"], inst["beta"]
            kind, c = inst["kind"], inst["c"]
            for x in ix.noms:
                ea = evidence(i, alpha, x)
                if ea not in ante and not (
                        (qa := _query(ea)) and ix.holds(*qa)):
                    continue
                for y in ix.noms:
                    eb = evidence(i, beta, y)
                    if eb not in ante and not (
                            (qb := _query(eb)) and ix.holds(*qb)):
                        continue
                    key = (CMP_R, e, cls.root(None, x), cls.root(None, y))
                    if key not in fired and \
                            Compare(Jump(x), kind, c, Jump(y)) not in cons:
                        return CMP_R, dict(inst, j=x, k=y), key, (ea, eb)
        elif dia_ok:
            i, a, phi = inst["i"], inst["a"], inst["phi"]
            for n in cls.members(i, ix.noms):
                for psi in ix.bodies_of.get(n, ()):
                    if type(psi) is not Diamond or psi.mod != a:
                        continue
                    j = psi.body.name
                    key = (DIA_R, e, cls.root(None, j))
                    if key not in fired and At(j, phi) not in cons:
                        return (DIA_R, dict(inst, j=j), key,
                                (At(i, psi),) if n != i else ())
    return None


def _fresh_move(ix, fresh_left):
    """The first left diamond or comparison the fresh-nominal budget can
    pay for, with its eigen-nominals drawn, and its cost; or None."""
    for cost, rule, inst in ix.fresh:
        if cost <= fresh_left:
            names = fresh_nominals(cost, ix.noms)
            return rule, inst | dict(zip(RULES[rule].eigens, names)), cost
    return None


def _attempt(ix, depth_left, fresh_left, steps, fired=frozenset()):
    """Search the branch of the sequent `ix` indexes; returns a closed
    derivation or None. The branch owns `ix` and updates it at every step.

    Every branch that gives up records why in steps["bound"]: "depth" (the
    depth bound stopped a move), "fresh" (a left diamond or comparison is
    left but the fresh-nominal budget cannot pay for it) or "saturated" (no
    move applies), and its index, which indexes the branch's last sequent,
    in steps["leaf"]. Search stops at the first failed branch, so the last
    record is the reason for the overall failure, and no step changes that
    index after it is recorded.
    """
    trail = []
    fired = set(fired)

    def fold(d):
        """`d`, the node of the branch's last step, under one node per step
        of `trail`. Each child proves the premiss that `premises` gave its
        step, so no node is derived again here. `prove` checks the whole
        tree, reading each node's premisses from the kernel's memo."""
        for step in reversed(trail):
            d = step.node((d,))
        return d

    def climb(reads, *moves):
        """Put on the trail the closure steps that add the atoms `reads`, then
        a step per move, each on the premiss of the one before; the last."""
        s, made = ix.seq, {}
        for e in reads:
            _derive(ix, e, made)
        for rule, inst in (*made.values(), *moves):
            step = premises(s, rule, inst)
            trail.append(step)
            s = step.premisses[0]
        return s

    while True:
        steps["visited"] += 1
        if (closing := ix.closing) is not None:
            rule, inst = closing
            reads = (inst["phi"],) if rule == AX else ()
            return fold(axiom(rule, climb(reads), inst))

        # witness rules are additive and invertible, so they can run before
        # the consuming decompositions: a comparison whose evidence holds is
        # answered before the decompositions grow the sequent
        reads = ()
        if wit := _witness_move(ix, fired, depth_left > 0):
            rule, inst, key, reads = wit
            fired.add(key)
            depth_left -= rule == DIA_R
        elif move := ix.decomposition:
            rule, inst = move
            cost = rule not in (NEQ_L, NEQ_R)     # free (SearchConfig)
            if cost and depth_left <= 0:
                steps.update(bound="depth", leaf=ix)
                return None
            depth_left -= cost
        elif depth_left <= 0:
            steps.update(bound="depth", leaf=ix)
            return None
        elif ix.branch is not None:
            step = premises(ix.seq, *ix.branch)
            p1, p2 = step.premisses
            left_ix = ix.copy()
            left_ix.update(p1)
            left = _attempt(left_ix, depth_left - 1, fresh_left, steps, fired)
            if left is None:
                return None
            ix.update(p2)
            right = _attempt(ix, depth_left - 1, fresh_left, steps, fired)
            if right is None:
                return None
            return fold(step.node((left, right)))
        elif fresh := _fresh_move(ix, fresh_left):
            rule, inst, spent = fresh
            fresh_left -= spent
            depth_left -= 1
        else:
            steps.update(bound="fresh" if ix.fresh else "saturated", leaf=ix)
            return None
        ix.update(climb(reads, (rule, inst)))


def _leaf_model(ix, names):
    """The model that the antecedent atoms of the sequent `ix` indexes
    describe, the saturated-branch model of hybrid tableaux: one node per
    alias class, the a-successors that @i <a>j give, p true where @i p
    holds, and per comparison symbol c of an antecedent equality the
    c-classes (see `_Classes`). Nodes are n1, n2, ... in the order of their
    classes' least nominals; a sequent without nominals gets one node. Only
    the sequent's nominals in `names` (`prove` passes the goal's) are
    placed, so the model does not mention the eigen-nominals search drew.

    On a saturated branch every rule has fired modulo the classes, which
    the model makes true by construction, so it refutes the sequent; a
    branch stopped by a bound may not be saturated, and `prove` checks the
    model against the goal either way."""
    cls = ix.classes
    least = {i: cls.root(None, i) for i in ix.noms}
    node = {k: f"n{t}" for t, k in enumerate(sorted(set(least.values())), 1)}
    at = {i: node[k] for i, k in least.items()}
    rels, val = defaultdict(set), defaultdict(set)
    for i, bodies in ix.bodies_of.items():
        for phi in bodies:
            if isinstance(phi, Prop):
                val[phi.name].add(at[i])
            elif isinstance(phi, Diamond):
                rels[phi.mod].add((at[i], at[phi.body.name]))
    nodes = sorted(node.values()) or ["n1"]
    cmp_class = {c: {at[i]: at[cls.root(c, i)] for i in ix.noms}
                 for c in sorted(cls.syms)}
    g = {i: at[i] for i in names if i in at}
    return HybridDataModel(nodes, rels, cmp_class, g, val)


def prove(goal, cfg=None):
    """Three-valued bounded proof search for a sequent.

    Proved results carry a derivation that `check_derivation` re-checked,
    every node of it. The check reads each node's premisses from the
    kernel's memo, where the search's steps kept them, and compares the
    node's own children with them, so it computes no premisses again and
    trusts nothing the search claimed. Refuted results carry a model
    verified to refute the goal; resource exhaustion is Unknown.

    With countermodels enabled, a failed search first tries the model that
    its failed branch describes (`_leaf_model`), whatever bound stopped the
    branch. That model need not be the smallest countermodel, and it may
    have more nodes than `cfg.countermodel_nodes`. Only when it does not
    refute the goal does `find_countermodel` enumerate models up to that
    bound.
    """
    cfg = cfg or SearchConfig()
    steps = {"visited": 0}
    d = _attempt(_Index(goal), cfg.max_depth, cfg.max_fresh_nominals, steps)
    if d is not None:
        violations = check_derivation(d)
        if violations:
            raise KernelError(f"search produced an invalid tree: {violations[0]}")
        return Proved(d)
    if cfg.enable_countermodel:
        m = _leaf_model(steps["leaf"], goal.nominals())
        if check_sequent_validity(m, goal):
            m = find_countermodel(goal, cfg.countermodel_nodes)
            if m is not None and check_sequent_validity(m, goal):
                raise KernelError("countermodel search returned a non-refuting model")
        if m is not None:
            return Refuted(m)
    return Unknown({"visited": steps["visited"],
                    "bound": steps["bound"],
                    "max_depth": cfg.max_depth,
                    "max_fresh_nominals": cfg.max_fresh_nominals,
                    "countermodel_nodes": (cfg.countermodel_nodes
                                           if cfg.enable_countermodel else 0)})


# ---------------------------------------------------------------------------
# Rule inverses
# ---------------------------------------------------------------------------

def invert(rule, d, inst):
    """Derivations of each premiss of `rule`, given one of its conclusion.

    A rule that keeps its principal inverts by weakening (an axiom has no
    premisses to derive). A rule that consumes its principal p inverts by
    one cut on p against its dual rule, whose premisses close by identity
    against what this rule adds.
    """
    concl = d.conclusion
    targets = premises(concl, rule, inst).premisses
    if not RULES[rule].consumes:
        return [weaken_to(d, t) for t in targets]
    other = dual(rule)
    side, p = principal(rule, inst)
    ours = added(rule, inst)
    if side == "ante":
        return [weaken_to(cut(close_dual(other, t.add_cons(p), inst, mine),
                              d, p), t) for t, mine in zip(targets, ours)]
    ((ante, cons),) = ours
    left = weaken_to(d, Sequent(concl.ante.union(ante), concl.cons.union(cons)))
    right = close_dual(other, sequent([p, *ante], cons), inst, ours[0])
    return [weaken_to(cut(left, right, p), targets[0])]
