"""Bounded backward proof search and the explicit rule inverses.

Every rule of the calculus is invertible, so the search never backtracks:
it saturates with non-branching rules, branches only on left implications,
spends a fresh-nominal budget on left diamonds/comparisons, and enumerates
witnesses for the right rules. Closure rules fire at most once per
instantiation (the added atom acts as the seen-marker). Termination of the
calculus itself is open, so exhaustion reports Unknown honestly.

The reflexive atoms @i i and <i: =c i:> are virtual: search treats them as
given and never saturates with AtT or EqT. Their step adds one only right
before a step that reads it: a closure instance or a CmpR witness that
needs it in the antecedent, or Ax on a reflexive consequent.
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
    witness steps along a branch. Closure saturation, CmpR witness steps and
    NEqL/NEqR are free: closure and CmpR instances fire at most once each
    over the branch's finite nominals, and the NEq rules consume inequality
    atoms, which only the comparison rules add. AtT and EqT are free too,
    and fire only right before a step that reads the reflexive atom they add.

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
_TABLES = ("ax", "refl", "bot", "ante_dec", "cons_dec", "branches", "fresh",
           "goals", "aliases", "eqs")
_KEYED = ("aliases_of", "eqs_from", "bodies_of", "steps_into")
# the tables whose values begin with the member itself: `_Index._enter` puts
# it there, so that the role kept on a member does not refer to the member
_HOLD_MEMBER = ("ax", "refl", "goals")


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
    that is not keyed), and its comparison symbol if it is an atomic
    comparison. An atom is kept by name, and any other member is routed by
    its dual pair; search never applies DiaL to a modal step @i <a>k. No
    entry holds `e` itself (see `_HOLD_MEMBER`), and no instantiation is
    changed after it is made, since the role is kept on `e`."""
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
        cons = (("ax", None, ()),)
        if given := _reflexive(e):
            cons += (("refl", None, given),)
    return tuple(ante), cons, cmp


def _reflexive(e):
    """The AtT or EqT instance that adds `e` if `e` is a reflexive atom, @i i
    or <i: =c i:>, which search treats as given; else None."""
    match e:
        case At(nom=i, body=Nominal(name=k)) if k == i:
            return AT_T, {"i": i}
        case Compare(left=Jump(nom=i), kind=CmpKind.EQ, cmp=c,
                     right=Jump(nom=k)) if k == i:
            return EQ_T, {"i": i, "c": c}
    return None


def _routed(e, cmp=None):
    """A compound member's role: one entry per side, sharing one instance."""
    (left, right), inst = decompose(e)
    return (_ROUTES[left](inst),), (_ROUTES[right](inst),), cmp


class _Index:
    """What the move finders need of one sequent, kept up to date along a
    branch. `update` moves the index to the next sequent by the members it
    drops and adds; a left implication's left premiss gets a `copy`, and
    `_Index(seq)` is an empty index updated by the whole of seq. Each
    distinct member is matched once, by the first `prove` call that indexes
    it, and its role is kept on it (`Expr.role`, see `_role`); each table
    keeps its values in the print-key order of the members they came from.

    `closing` is the first axiom instance (Ax, the first of the consequent
    members of axiom shape, held in `ax` as (member,), that is also in the
    antecedent, before Bot), `refl` holds (member, rule, instantiation) for
    each reflexive consequent atom and the AtT or EqT step that adds it,
    `decomposition` the first invertible
    non-branching decomposition (antecedent before consequent) and `branch`
    the first left implication, each a (rule, instantiation) pair or None.
    `fresh` holds (cost, rule, instantiation) for each left diamond or
    comparison, cost being the eigen-nominals it needs, left unbound, and
    `goals` (member, rule, instantiation) for each right diamond or
    comparison, its witnesses unbound. An instantiation is shared by the
    entries of one member in every `prove` call, so no finder changes it.
    The antecedent atoms are kept by name, so that a finder asks whether a
    candidate is present without building it: `aliases` holds (i, k) for
    each @i k, `eqs` (i, c, j) for each <i: =c j:>, `aliases_of[i]` each k,
    `eqs_from[i]` each (c, j), `bodies_of[j]` each phi of an @j phi that S1
    may substitute and `steps_into[k]` each (i, a) of an @i <a>k. `noms`
    and `cmps` are the sorted nominals and atomic comparison symbols, kept
    exact by counting the member occurrences that hold each, since a step
    can consume the last member that holds one.
    """

    __slots__ = ("seq", "noms", "cmps", "nom_count", "cmp_count",
                 *_TABLES, *_KEYED)

    def __init__(self, seq):
        self.seq = sequent()
        self.noms, self.cmps, self.nom_count, self.cmp_count = [], [], {}, {}
        for name in _TABLES:
            setattr(self, name, _Table())
        for name in _KEYED:
            setattr(self, name, defaultdict(_Table))
        self.update(seq)

    def copy(self):
        c = object.__new__(type(self))
        c.seq = self.seq
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
        for (e,) in self.ax:
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
        old = self.seq
        for side, was, now in ((0, old.ante, seq.ante),
                               (1, old.cons, seq.cons)):
            for e in was - now:
                self._enter(e, side, -1)
            for e in now - was:
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
    """(i, alpha, x) -> (evidence(i, alpha, x), `_reflexive` of it): the
    formula a right comparison at i needs for path alpha and endpoint x, and
    the AtT step that adds it if it is a reflexive alias. A path cannot be
    keyed by names, so each is built once per `prove` call, in the table
    that call owns."""

    def __missing__(self, key):
        e = evidence(*key)
        v = self[key] = e, _reflexive(e)
        return v


def _closure_moves(ix):
    """Every closure-rule instance whose added atom is genuinely new and not
    reflexive, in the sequent indexed by `ix`, At5 first, then S1, S2, S3
    and Eq5.

    The reflexive atoms are given, so no instance adds one, and where an
    instance reads one that the sequent lacks (At5, S3 and Eq5 with k = i),
    the AtT or EqT step that adds it comes in the instance's place; the
    instance is then the first one of the next sequent. Search takes the
    first; since each instance fires at most once (the added atom marks it
    as done) the saturation reaches the same fixpoint, modulo reflexivity,
    under any order.
    """
    aliases_of, eqs_from = ix.aliases_of, ix.eqs_from
    for i, j in ix.aliases:
        ks, js = aliases_of[i], aliases_of[j]
        for k in ks:
            if k != j and k not in js:
                yield AT_5, {"i": i, "j": j, "k": k}
        if i not in ks and i not in js:     # At5 with k = i reads @i i
            yield AT_T, {"i": i}
    for i, j in ix.aliases:
        for phi in ix.bodies_of[i]:
            if phi not in ix.bodies_of[j]:
                yield S1, {"i": i, "j": j, "phi": phi}
    for j, k in ix.aliases:
        for i, a in ix.steps_into[j]:
            if (i, a) not in ix.steps_into[k]:
                yield S2, {"i": i, "j": j, "k": k, "a": a}
    for i, j in ix.aliases:
        js = eqs_from[j]
        for c, k in eqs_from[i]:
            if k != j and (c, k) not in js:
                yield S3, {"i": i, "j": j, "k": k, "c": c}
        if i != j:                          # S3 with k = i reads <i: =c i:>
            for c in ix.cmps:
                if (c, i) not in eqs_from[i] and (c, i) not in js:
                    yield EQ_T, {"i": i, "c": c}
    for i, c, j in ix.eqs:
        js = eqs_from[j]
        for c2, k in eqs_from[i]:
            if c2 == c and k != j and (c, k) not in js:
                yield EQ_5, {"i": i, "j": j, "k": k, "c": c}
        # Eq5 with k = i reads <i: =c i:>
        if i != j and (c, i) not in eqs_from[i] and (c, i) not in js:
            yield EQ_T, {"i": i, "c": c}


def _witness_move(ix, fired, evidence, dia_ok):
    """Right witness rules; `fired` keys stop re-introduction loops. DiaR
    candidates are skipped unless `dia_ok` (the depth bound allows them).

    A CmpR evidence that is a reflexive alias counts as present; when the
    sequent lacks it, its AtT step comes in the witness's place, with no
    key, and the witness is then the move of the next sequent."""
    cons, ante = ix.seq.cons, ix.seq.ante
    for e, rule, inst in ix.goals:
        if rule == CMP_R:
            i, alpha, beta = inst["i"], inst["alpha"], inst["beta"]
            kind, c = inst["kind"], inst["c"]
            for x in ix.noms:
                ea, ga = evidence[i, alpha, x]
                if ga is None and ea not in ante:
                    continue
                for y in ix.noms:
                    eb, gb = evidence[i, beta, y]
                    if gb is None and eb not in ante:
                        continue
                    key = (CMP_R, e, x, y)
                    if key not in fired and \
                            Compare(Jump(x), kind, c, Jump(y)) not in cons:
                        for ev, given in ((ea, ga), (eb, gb)):
                            if ev not in ante:
                                return (*given, None)
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

    while True:
        steps["visited"] += 1
        cur = ix.seq
        if (closing := ix.closing) is not None:
            rule, inst = closing
            return fold(axiom(rule, cur, inst))
        if ix.refl:
            # a reflexive consequent: its AtT or EqT step adds it to the
            # antecedent, and Ax closes the premiss
            e, rule, inst = ix.refl[0]
            step = premises(cur, rule, inst)
            trail.append(step)
            return fold(axiom(AX, step.premisses[0], {"phi": e}))

        # witness rules are additive and invertible, so they can run before
        # the consuming decompositions: a comparison whose evidence is in the
        # antecedent is answered before the decompositions grow the sequent
        if wit := _witness_move(ix, fired, evidence, depth_left > 0):
            rule, inst, key = wit
            if key is not None:
                fired.add(key)
            depth_left -= rule == DIA_R
        elif move := ix.decomposition or next(_closure_moves(ix), None):
            rule, inst = move
            cost = rule not in FREE_RULES
            if cost and depth_left <= 0:
                steps.update(bound="depth", leaf=ix)
                return None
            depth_left -= cost
        elif depth_left <= 0:
            steps.update(bound="depth", leaf=ix)
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
            steps.update(bound="fresh" if ix.fresh else "saturated", leaf=ix)
            return None
        step = premises(cur, rule, inst)
        trail.append(step)
        ix.update(step.premisses[0])


def _least(names, pairs):
    """name -> the least name of its class, for the sorted `names`, under
    the equivalence that the `pairs` of names generate."""
    up = {n: n for n in names}

    def root(n):
        while up[n] != n:
            n = up[n]
        return n

    for x, y in pairs:
        x, y = root(x), root(y)
        if x != y:
            up[max(x, y)] = min(x, y)
    return {n: root(n) for n in names}


def _leaf_model(ix, names):
    """The model that the antecedent atoms of the sequent `ix` indexes
    describe, the saturated-branch model of hybrid tableaux: one node per
    class of nominals under @i j, the a-successors that @i <a>j give, p
    true where @i p holds, and per comparison symbol c the classes that
    <i: =c j:> make. Nodes are n1, n2, ... in the order of their classes'
    least nominals, and a sequent without nominals gets one node. The
    nominal assignment places only the sequent's nominals that are in
    `names` (`prove` passes the goal's), so the model does not mention the
    eigen-nominals that search drew.

    On a saturated branch every rule has fired modulo reflexivity: only
    reflexive atoms, which search leaves virtual, may be absent, and the
    classes hold those by construction. So the atoms are closed and the
    model refutes the sequent; a branch stopped by a bound may not be
    closed, so the classes are taken as the closures of the atoms, and
    `prove` checks the model against the goal either way."""
    least = _least(ix.noms, ix.aliases)
    node = {k: f"n{t}" for t, k in enumerate(sorted(set(least.values())), 1)}
    at = {i: node[k] for i, k in least.items()}
    rels, val, eqs = defaultdict(set), defaultdict(set), defaultdict(list)
    for k, into in ix.steps_into.items():
        for i, a in into:
            rels[a].add((at[i], at[k]))
    for i, bodies in ix.bodies_of.items():
        for phi in bodies:
            if isinstance(phi, Prop):
                val[phi.name].add(at[i])
    for i, c, j in ix.eqs:
        eqs[c].append((at[i], at[j]))
    nodes = sorted(node.values()) or ["n1"]
    cmp_class = {c: _least(nodes, pairs) for c, pairs in eqs.items()}
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
    d = _attempt(_Index(goal), cfg.max_depth, cfg.max_fresh_nominals, steps,
                 _Evidence())
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
