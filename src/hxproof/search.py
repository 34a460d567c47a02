"""Bounded backward proof search and the explicit rule inverses.

Every rule of the calculus is invertible, so the search never backtracks:
it saturates with non-branching rules, branches only on left implications,
spends a fresh-nominal budget on left diamonds/comparisons, and enumerates
witnesses for the right rules. Closure rules fire at most once per
instantiation (the added atom acts as the seen-marker). Termination of the
calculus itself is open, so exhaustion reports Unknown honestly.
"""

from __future__ import annotations

from bisect import bisect, bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field

from .derived import (
    added, close_dual, decompose, dual, principal, weaken_to,
)
from .kernel import (
    AT_5, AT_T, AX, BOT_RULE, CMP_R, DIA_R, EQ_5, EQ_T, RULES, S1, S2, S3,
    Derivation, KernelError, Sequent, Step, ax_shape, axiom,
    check_derivation, cut, evidence, s1_shape, sequent,
)
# not called here, but perfbench's tracer rebinds `search.infer`
from .kernel import infer  # noqa: F401
from .model import HybridDataModel, check_sequent_validity, find_countermodel
from .syntax import (
    At, Bottom, CmpKind, Compare, Diamond, Implies, Jump, Nominal,
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
    witness steps along a branch. Closure saturation, CmpR witness steps and
    NEqL/NEqR are free: closure and CmpR instances fire at most once each
    over the branch's finite nominals, and the NEq rules consume inequality
    atoms, which only the comparison rules add.
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

CLOSURE_RULES = (AT_T, AT_5, S1, S2, S3, EQ_T, EQ_5)
# moves the depth bound does not count (SearchConfig): closures, the NEq pair
FREE_RULES = frozenset(CLOSURE_RULES).union(
    decompose(Compare(Jump("i"), CmpKind.NEQ, "c", Jump("j")))[0])


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


# the index's tables of values in member order, not keyed and keyed by name
_TABLES = ("ax", "bot", "ante_dec", "cons_dec", "branches", "fresh", "goals",
           "aliases", "eqs")
_KEYED = ("aliases_of", "eqs_from", "bodies_of", "steps_into")


def _route(rule):
    """How a member enters the index on `rule`'s side, by the rule's record."""
    r = RULES[rule]
    if r.eigens:
        cost = len(r.eigens)
        return lambda e, inst: ("fresh", None, (cost, rule, inst))
    if len(r.premisses) > 1:
        return lambda e, inst: ("branches", None, (rule, inst))
    if r.consumes:
        table = "ante_dec" if r.side == "ante" else "cons_dec"
        return lambda e, inst: (table, None, (rule, inst))
    return lambda e, inst: ("goals", None, (rule, e, inst))


_ROUTES = {rule: _route(rule) for rule in RULES if dual(rule)}


def _role(e):
    """What a member gives the index: the (table, name, value) entries it
    adds as an antecedent and as a consequent member (name None for a table
    that is not keyed), and its comparison symbol if it is an atomic
    comparison. An atom is kept by name, and any other member is routed by
    its dual pair; search never applies DiaL to a modal step @i <a>k."""
    ante, cons, cmp = [], (), None
    match e:
        case At(nom=i, body=phi):
            match phi:
                case Nominal(name=k):
                    ante += [("aliases", None, (i, k)), ("aliases_of", i, k)]
                case Bottom():
                    ante.append(("bot", None, (BOT_RULE, {"i": i})))
                case Diamond(mod=a, body=Nominal(name=k)):
                    ante.append(("steps_into", k, (i, a)))
                    cons = _routed(e)[1]
                case Implies() | At() | Diamond() | Compare():
                    return _routed(e)
            if s1_shape(phi):
                ante.append(("bodies_of", i, phi))
        case Compare(left=Jump(nom=i), kind=kind, cmp=c, right=Jump(nom=j)):
            if kind is not CmpKind.EQ:
                return _routed(e, c)
            ante += [("eqs", None, (i, c, j)), ("eqs_from", i, (c, j))]
            cmp = c
    if ax_shape(e):
        cons = (("ax", None, e),)
    return tuple(ante), cons, cmp


def _routed(e, cmp=None):
    """A compound member's role: one entry per side, sharing one instance."""
    (left, right), inst = decompose(e)
    return (_ROUTES[left](e, inst),), (_ROUTES[right](e, inst),), cmp


class _Roles(dict):
    """member -> _role(member), worked out once per `prove` call: the root
    index of a `prove` call makes the table, and its copies share it."""

    def __missing__(self, e):
        r = self[e] = _role(e)
        return r


class _Index:
    """What the move finders need of one sequent, kept up to date along a
    branch. `update` moves the index to the next sequent by the members it
    drops and adds; a left implication's left premiss gets a `copy`, and
    `_Index(seq)` is an empty index updated by the whole of seq. Each
    distinct member is matched once per `prove` call (see `_role`), and each
    table keeps its values in the print-key order of the members they came
    from.

    `closing` is the first axiom instance (Ax, the first of the consequent
    members of axiom shape in `ax` that is also in the antecedent, before
    Bot), `decomposition` the first invertible non-branching decomposition
    (antecedent before consequent) and `branch` the first left implication,
    each a (rule, instantiation) pair or None. `fresh` holds (cost, rule,
    instantiation) for each left diamond or comparison, cost being the
    eigen-nominals it needs, left unbound, and `goals` (rule, member,
    instantiation) for each right diamond or comparison, its witnesses
    unbound. An instantiation is shared by the entries of one member, so
    no finder changes it. The antecedent atoms are kept by name, so that a
    finder asks whether a candidate is present without building it:
    `aliases` holds (i, k) for each @i k, `eqs` (i, c, j) for each
    <i: =c j:>, `aliases_of[i]` each k, `eqs_from[i]` each (c, j),
    `bodies_of[j]` each phi of an @j phi that S1 may substitute and
    `steps_into[k]` each (i, a) of an @i <a>k. `noms` and `cmps` are the
    sorted nominals and atomic comparison symbols, kept exact by counting
    the member occurrences that hold each, since a step can consume the
    last member that holds one.
    """

    __slots__ = ("seq", "roles", "noms", "cmps", "nom_count", "cmp_count",
                 *_TABLES, *_KEYED)

    def __init__(self, seq):
        self.seq, self.roles = sequent(), _Roles()
        self.noms, self.cmps, self.nom_count, self.cmp_count = [], [], {}, {}
        for name in _TABLES:
            setattr(self, name, _Table())
        for name in _KEYED:
            setattr(self, name, defaultdict(_Table))
        self.update(seq)

    def copy(self):
        c = object.__new__(type(self))
        c.seq, c.roles = self.seq, self.roles
        c.noms, c.cmps = self.noms.copy(), self.cmps.copy()
        c.nom_count, c.cmp_count = self.nom_count.copy(), self.cmp_count.copy()
        for name in _TABLES:
            setattr(c, name, getattr(self, name).copy())
        for name in _KEYED:
            setattr(c, name, defaultdict(_Table, {
                k: t.copy() for k, t in getattr(self, name).items()}))
        return c

    @property
    def closing(self):
        ante = self.seq.ante
        for e in self.ax:
            if e in ante:
                return AX, {"phi": e}
        return self.bot[0] if self.bot else None

    @property
    def decomposition(self):
        t = self.ante_dec or self.cons_dec
        return t[0] if t else None

    @property
    def branch(self):
        return self.branches[0] if self.branches else None

    def update(self, seq):
        """Index `seq` in place of the sequent indexed so far."""
        old, roles = self.seq, self.roles
        for side, was, now in ((0, old.ante, seq.ante),
                               (1, old.cons, seq.cons)):
            for e in was - now:
                self._enter(e, roles[e], side, -1)
            for e in now - was:
                self._enter(e, roles[e], side, 1)
        self.seq = seq

    def _enter(self, e, role, side, sign):
        """Add (sign 1) or remove (sign -1) one occurrence of member `e`."""
        key = e.key
        for name, sub, val in role[side]:
            t = getattr(self, name)
            if sub is not None:
                t = t[sub]
            if sign > 0:
                t.add(key, val)
            else:
                t.drop(key)
        _count(self.nom_count, self.noms, e.noms, sign)
        if role[2] is not None:
            _count(self.cmp_count, self.cmps, (role[2],), sign)


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


class _Evidence(dict):
    """(i, alpha, x) -> evidence(i, alpha, x), the formula a right comparison
    at i needs for path alpha and endpoint x. A path cannot be keyed by
    names, so each is built once per `prove` call, in the table that call
    owns."""

    def __missing__(self, key):
        e = self[key] = evidence(*key)
        return e


def _closure_moves(ix):
    """Every closure-rule instance whose added atom is genuinely new, in the
    sequent indexed by `ix`, in CLOSURE_RULES order.

    Search takes the first; since each instance fires at most once (the
    added atom marks it as done) the saturation reaches the same fixpoint
    under any order.
    """
    aliases_of, eqs_from = ix.aliases_of, ix.eqs_from
    for i in ix.noms:
        if i not in aliases_of[i]:
            yield AT_T, {"i": i}
    for i, j in ix.aliases:
        for k in aliases_of[i]:
            if k not in aliases_of[j]:
                yield AT_5, {"i": i, "j": j, "k": k}
    for i, j in ix.aliases:
        for phi in ix.bodies_of[i]:
            if phi not in ix.bodies_of[j]:
                yield S1, {"i": i, "j": j, "phi": phi}
    for j, k in ix.aliases:
        for i, a in ix.steps_into[j]:
            if (i, a) not in ix.steps_into[k]:
                yield S2, {"i": i, "j": j, "k": k, "a": a}
    for i, j in ix.aliases:
        for c, k in eqs_from[i]:
            if (c, k) not in eqs_from[j]:
                yield S3, {"i": i, "j": j, "k": k, "c": c}
    for i in ix.noms:
        for c in ix.cmps:
            if (c, i) not in eqs_from[i]:
                yield EQ_T, {"i": i, "c": c}
    for i, c, j in ix.eqs:
        for c2, k in eqs_from[i]:
            if c2 == c and (c, k) not in eqs_from[j]:
                yield EQ_5, {"i": i, "j": j, "k": k, "c": c}


def _witness_move(ix, fired, evidence, dia_ok):
    """Right witness rules; `fired` keys stop re-introduction loops. DiaR
    candidates are skipped unless `dia_ok` (the depth bound allows them)."""
    cons, ante = ix.seq.cons, ix.seq.ante
    for rule, e, inst in ix.goals:
        if rule == CMP_R:
            i, alpha, beta = inst["i"], inst["alpha"], inst["beta"]
            kind, c = inst["kind"], inst["c"]
            for x in ix.noms:
                if evidence[i, alpha, x] not in ante:
                    continue
                for y in ix.noms:
                    if evidence[i, beta, y] not in ante:
                        continue
                    key = (CMP_R, e, x, y)
                    if key not in fired and \
                            Compare(Jump(x), kind, c, Jump(y)) not in cons:
                        return CMP_R, dict(inst, j=x, k=y), key
        elif dia_ok:
            i, a, phi = inst["i"], inst["a"], inst["phi"]
            for j in ix.noms:
                key = (DIA_R, e, j)
                if (i, a) in ix.steps_into[j] and key not in fired \
                        and At(j, phi) not in cons:
                    return DIA_R, dict(inst, j=j), key
    return None


def _fresh_move(ix, fresh_left):
    """The first left diamond or comparison the fresh-nominal budget can
    pay for, with its eigen-nominals drawn, and its cost; or None."""
    for cost, rule, inst in ix.fresh:
        if cost <= fresh_left:
            names = fresh_nominals(cost, ix.noms)
            return rule, inst | dict(zip(RULES[rule].eigens, names)), cost
    return None


def _attempt(ix, depth_left, fresh_left, steps, evidence, fired=frozenset()):
    """Search the branch of the sequent `ix` indexes; returns a closed
    derivation or None. The branch owns `ix` and updates it at every step.

    `evidence` is the calling `prove`'s table of comparison evidence.

    Every branch that gives up records why in steps["bound"]: "depth" (the
    depth bound stopped a move), "fresh" (a left diamond or comparison is
    left but the fresh-nominal budget cannot pay for it) or "saturated" (no
    move applies). Search stops at the first failed branch, so the last
    record is the reason for the overall failure.
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

    while True:
        steps["visited"] += 1
        cur = ix.seq
        if (closing := ix.closing) is not None:
            rule, inst = closing
            return fold(axiom(rule, cur, inst))

        # witness rules are additive and invertible, so they can run before
        # the consuming decompositions: a comparison whose evidence is in the
        # antecedent is answered before the decompositions grow the sequent
        if wit := _witness_move(ix, fired, evidence, depth_left > 0):
            rule, inst, key = wit
            fired.add(key)
            depth_left -= rule == DIA_R
        elif move := ix.decomposition or next(_closure_moves(ix), None):
            rule, inst = move
            cost = rule not in FREE_RULES
            if cost and depth_left <= 0:
                steps["bound"] = "depth"
                return None
            depth_left -= cost
        elif depth_left <= 0:
            steps["bound"] = "depth"
            return None
        elif ix.branch is not None:
            step = premises(cur, *ix.branch)
            p1, p2 = step.premisses
            left_ix = ix.copy()
            left_ix.update(p1)
            left = _attempt(left_ix, depth_left - 1, fresh_left, steps,
                            evidence, fired)
            if left is None:
                return None
            ix.update(p2)
            right = _attempt(ix, depth_left - 1, fresh_left, steps, evidence,
                             fired)
            if right is None:
                return None
            return fold(step.node((left, right)))
        elif fresh := _fresh_move(ix, fresh_left):
            rule, inst, spent = fresh
            fresh_left -= spent
            depth_left -= 1
        else:
            steps["bound"] = "fresh" if ix.fresh else "saturated"
            return None
        step = premises(cur, rule, inst)
        trail.append(step)
        ix.update(step.premisses[0])


def prove(goal, cfg=None):
    """Three-valued bounded proof search for a sequent.

    Proved results carry a derivation that `check_derivation` re-checked,
    every node of it. The check reads each node's premisses from the
    kernel's memo, where the search's steps kept them, and compares the
    node's own children with them, so it computes no premisses again and
    trusts nothing the search claimed. Refuted results carry a model
    verified to refute the goal; resource exhaustion is Unknown.
    """
    cfg = cfg or SearchConfig()
    steps = {"visited": 0}
    d = _attempt(_Index(goal), cfg.max_depth, cfg.max_fresh_nominals, steps,
                 _Evidence())
    if d is not None:
        violations = check_derivation(d)
        if violations:
            raise KernelError(f"search produced an invalid tree: {violations[0]}")
        return Proved(d)
    if cfg.enable_countermodel:
        m = find_countermodel(goal, cfg.countermodel_nodes)
        if m is not None:
            if check_sequent_validity(m, goal):
                raise KernelError("countermodel search returned a non-refuting model")
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
