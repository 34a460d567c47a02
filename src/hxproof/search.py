"""Bounded backward proof search and the explicit rule inverses.

Every rule of the calculus is invertible, so the search never backtracks:
it saturates with non-branching rules, branches only on left implications,
spends a fresh-nominal budget on left diamonds/comparisons, and enumerates
witnesses for the right rules. Closure rules fire at most once per
instantiation (the added atom acts as the seen-marker). Termination of the
calculus itself is open, so exhaustion reports Unknown honestly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .derived import crossed, exactly, identity, step
from .kernel import (
    ALL_RULES, AT_5, AT_L, AT_R, AT_T, AX, BOT_RULE, CMP_L, CMP_R, DIA_L,
    DIA_R, EQ_5, EQ_T, IMP_L, IMP_R, NEQ_L, NEQ_R, RULES, S1, S2, S3,
    Derivation, KernelError, Sequent, added, ax_shape, axiom,
    check_derivation, cut, dual, evidence, infer, premises, principal,
    s1_shape, weaken_to,
)
from .model import HybridDataModel, check_sequent_validity, find_countermodel
from .syntax import (
    At, Bottom, CmpKind, Compare, Diamond, Implies, Jump, Nominal,
    fresh_nominals,
)

@dataclass(frozen=True)
class SearchConfig:
    """Bounds and rule restrictions for backward search.

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
    allowed_rules: frozenset = frozenset(ALL_RULES)

    def allows(self, rule):
        return rule in self.allowed_rules


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

def _try_close(seq):
    for e in seq.sorted_ante:
        if e in seq.cons and ax_shape(e):
            return axiom(AX, seq, {"phi": e})
    for e in seq.sorted_ante:
        match e:
            case At(i, Bottom()):
                return axiom(BOT_RULE, seq, {"i": i})
            case _:
                pass
    return None


def _decomposition_move(seq, cfg):
    """First applicable invertible non-branching decomposition."""
    for e in seq.sorted_ante:
        match e:
            case Compare(Jump(i), CmpKind.NEQ, c, Jump(j)) if cfg.allows(NEQ_L):
                return NEQ_L, {"i": i, "j": j, "c": c}
            case At(j, At(i, phi)) if cfg.allows(AT_L):
                return AT_L, {"j": j, "i": i, "phi": phi}
            case _:
                pass
    for e in seq.sorted_cons:
        match e:
            case Compare(Jump(i), CmpKind.NEQ, c, Jump(j)) if cfg.allows(NEQ_R):
                return NEQ_R, {"i": i, "j": j, "c": c}
            case At(j, At(i, phi)) if cfg.allows(AT_R):
                return AT_R, {"j": j, "i": i, "phi": phi}
            case At(i, Implies(phi, psi)) if cfg.allows(IMP_R):
                return IMP_R, {"i": i, "phi": phi, "psi": psi}
            case _:
                pass
    return None


CLOSURE_RULES = (AT_T, AT_5, S1, S2, S3, EQ_T, EQ_5)
# moves the depth bound does not count (see SearchConfig)
FREE_RULES = frozenset(CLOSURE_RULES + (NEQ_L, NEQ_R))


class _Shape:
    """The antecedent atoms of one sequent, indexed by their names.

    Built in one pass over `sorted_ante`, so that a move finder asks whether
    a candidate formula is present with a tuple lookup instead of building
    the formula. `aliases` holds (i, k) for each @i k, `bodies` (j, phi) for
    each @j phi, `steps` (i, a, k) for each @i <a>k and `eqs` (i, c, j) for
    each <i: =c j:>. The lists keep print-key order, so the finders visit
    candidates in the order of a scan over `sorted_ante`.
    """

    __slots__ = ("noms", "cmps", "aliases", "bodies", "steps", "eqs",
                 "alias_list", "eq_list", "aliases_of", "bodies_of",
                 "steps_into", "eqs_from")

    def __init__(self, seq):
        cmps = {e.cmp for e in seq.sorted_cons if isinstance(e, Compare)}
        bodies, steps, alias_list, eq_list = set(), set(), [], []
        aliases_of, bodies_of, steps_into, eqs_from = (
            defaultdict(list) for _ in range(4))
        for e in seq.sorted_ante:
            if isinstance(e, At):
                i, phi = e.nom, e.body
                bodies.add((i, phi))
                bodies_of[i].append(phi)
                if isinstance(phi, Nominal):
                    alias_list.append((i, phi.name))
                    aliases_of[i].append(phi.name)
                elif isinstance(phi, Diamond) and isinstance(phi.body, Nominal):
                    steps.add((i, phi.mod, phi.body.name))
                    steps_into[phi.body.name].append((i, phi.mod))
            else:                           # <i: ^c j:>, by the sequent's shape
                cmps.add(e.cmp)
                if e.kind is CmpKind.EQ:
                    eq_list.append((e.left.nom, e.cmp, e.right.nom))
                    eqs_from[e.left.nom].append((e.cmp, e.right.nom))
        self.noms, self.cmps = sorted(seq.nominals()), sorted(cmps)
        self.aliases, self.bodies = set(alias_list), bodies
        self.steps, self.eqs = steps, set(eq_list)
        self.alias_list, self.eq_list = alias_list, eq_list
        self.aliases_of, self.bodies_of = aliases_of, bodies_of
        self.steps_into, self.eqs_from = steps_into, eqs_from


class _Evidence(dict):
    """(i, alpha, x) -> evidence(i, alpha, x), the formula a right comparison
    at i needs for path alpha and endpoint x. A path cannot be keyed by
    names, so each is built once per `prove` call, in the table that call
    owns."""

    def __missing__(self, key):
        e = self[key] = evidence(*key)
        return e


def _closure_move(shape, cfg):
    """First closure-rule instance whose added atom is genuinely new, in the
    sequent indexed by `shape`.

    Rules fire in CLOSURE_RULES order; since each instance fires at most
    once (the added atom marks it as done) the saturation reaches the same
    fixpoint under any order.
    """
    for rule in filter(cfg.allows, CLOSURE_RULES):
        if rule == AT_T:
            for i in shape.noms:
                if (i, i) not in shape.aliases:
                    return AT_T, {"i": i}
        elif rule == EQ_T:
            for i in shape.noms:
                for c in shape.cmps:
                    if (i, c, i) not in shape.eqs:
                        return EQ_T, {"i": i, "c": c}
        elif rule == AT_5:
            for i, j in shape.alias_list:
                for k in shape.aliases_of[i]:
                    if (j, k) not in shape.aliases:
                        return AT_5, {"i": i, "j": j, "k": k}
        elif rule == S1:
            for i, j in shape.alias_list:
                for phi in shape.bodies_of[i]:
                    if s1_shape(phi) and (j, phi) not in shape.bodies:
                        return S1, {"i": i, "j": j, "phi": phi}
        elif rule == S2:
            for j, k in shape.alias_list:
                for i, a in shape.steps_into[j]:
                    if (i, a, k) not in shape.steps:
                        return S2, {"i": i, "j": j, "k": k, "a": a}
        elif rule == S3:
            for i, j in shape.alias_list:
                for c, k in shape.eqs_from[i]:
                    if (j, c, k) not in shape.eqs:
                        return S3, {"i": i, "j": j, "k": k, "c": c}
        elif rule == EQ_5:
            for i, c, j in shape.eq_list:
                for c2, k in shape.eqs_from[i]:
                    if c2 == c and (j, c, k) not in shape.eqs:
                        return EQ_5, {"i": i, "j": j, "k": k, "c": c}
    return None


def _branch_move(seq, cfg):
    if not cfg.allows(IMP_L):
        return None
    for e in seq.sorted_ante:
        match e:
            case At(i, Implies(phi, psi)):
                return IMP_L, {"i": i, "phi": phi, "psi": psi}
            case _:
                pass
    return None


def _fresh_moves(seq, cfg, fresh_left):
    """Left diamond / comparison decompositions, cheapest first."""
    out = []
    for e in seq.sorted_ante:
        match e:
            case At(i, Diamond(a, phi)) if not isinstance(phi, Nominal) \
                    and cfg.allows(DIA_L) and fresh_left >= 1:
                (j,) = fresh_nominals(1, seq.nominals())
                out.append((DIA_L, {"i": i, "a": a, "phi": phi, "j": j}, 1))
            case At(i, Compare(alpha, kind, c, beta)) if cfg.allows(CMP_L) \
                    and fresh_left >= 2:
                j, k = fresh_nominals(2, seq.nominals())
                out.append((CMP_L, {"i": i, "alpha": alpha, "beta": beta,
                                    "kind": kind, "c": c, "j": j, "k": k}, 2))
            case _:
                pass
    return out


def _witness_move(seq, cfg, fired, shape, evidence, dia_ok):
    """Right witness rules; `fired` keys stop re-introduction loops. DiaR
    candidates are skipped unless `dia_ok` (the depth bound allows them)."""
    for e in seq.sorted_cons:
        match e:
            case At(i, Diamond(a, phi)) if dia_ok and cfg.allows(DIA_R):
                for j in shape.noms:
                    if (i, a, j) not in shape.steps:
                        continue
                    key = (DIA_R, e, j)
                    if key not in fired and At(j, phi) not in seq.cons:
                        return (DIA_R, {"i": i, "a": a, "phi": phi, "j": j}), key
            case At(i, Compare(alpha, kind, c, beta)) if cfg.allows(CMP_R):
                for x in shape.noms:
                    if evidence[i, alpha, x] not in seq.ante:
                        continue
                    for y in shape.noms:
                        if evidence[i, beta, y] not in seq.ante:
                            continue
                        key = (CMP_R, e, x, y)
                        added = Compare(Jump(x), kind, c, Jump(y))
                        if key not in fired and added not in seq.cons:
                            return (CMP_R, {"i": i, "alpha": alpha,
                                            "beta": beta, "kind": kind,
                                            "c": c, "j": x, "k": y}), key
            case _:
                pass
    return None


def _attempt(seq, depth_left, fresh_left, cfg, steps, evidence,
             fired=frozenset()):
    """Search one branch; returns a closed derivation or None.

    `evidence` is the calling `prove`'s table of comparison evidence.

    Every branch that gives up records why in steps["bound"]: "depth" (the
    depth bound stopped a move), "fresh" (a left diamond or comparison is
    left but the fresh-nominal budget cannot pay for it) or "saturated" (no
    move applies). Search stops at the first failed branch, so the last
    record is the reason for the overall failure.
    """
    trail = []
    cur = seq
    fired = set(fired)

    def fold(topd):
        d = topd
        for rule, inst, concl in reversed(trail):
            d = infer(rule, concl, inst, [d])
        return d

    while True:
        steps["visited"] += 1
        closed = _try_close(cur)
        if closed is not None:
            return fold(closed)
        shape = _Shape(cur)

        # witness rules are additive and invertible, so they can run before
        # the consuming decompositions: a comparison whose evidence is in the
        # antecedent is answered before the decompositions grow the sequent
        wit = _witness_move(cur, cfg, fired, shape, evidence, depth_left > 0)
        if wit is not None:
            (rule, inst), key = wit
            fired.add(key)
            depth_left -= rule == DIA_R
            trail.append((rule, inst, cur))
            cur = premises(cur, rule, inst)[0]
            continue

        move = _decomposition_move(cur, cfg)
        if move is None:
            move = _closure_move(shape, cfg)
        if move is not None:
            rule, inst = move
            cost = rule not in FREE_RULES
            if cost and depth_left <= 0:
                steps["bound"] = "depth"
                return None
            depth_left -= cost
            trail.append((rule, inst, cur))
            cur = premises(cur, rule, inst)[0]
            continue

        if depth_left <= 0:
            steps["bound"] = "depth"
            return None

        branch = _branch_move(cur, cfg)
        if branch is not None:
            rule, inst = branch
            p1, p2 = premises(cur, rule, inst)
            left = _attempt(p1, depth_left - 1, fresh_left, cfg, steps,
                            evidence, fired)
            if left is None:
                return None
            right = _attempt(p2, depth_left - 1, fresh_left, cfg, steps,
                             evidence, fired)
            if right is None:
                return None
            return fold(infer(rule, cur, inst, [left, right]))

        fresh = _fresh_moves(cur, cfg, fresh_left)
        if fresh:
            rule, inst, spent = fresh[0]
            fresh_left -= spent
            depth_left -= 1
            trail.append((rule, inst, cur))
            cur = premises(cur, rule, inst)[0]
            continue

        steps["bound"] = ("fresh" if _fresh_moves(cur, cfg, float("inf"))
                          else "saturated")
        return None


def prove(goal, cfg=None):
    """Three-valued bounded proof search for a sequent.

    Proved results carry a derivation that re-checks; Refuted results carry
    a model verified to refute the goal; resource exhaustion is Unknown.
    """
    cfg = cfg or SearchConfig()
    steps = {"visited": 0}
    d = _attempt(goal, cfg.max_depth, cfg.max_fresh_nominals, cfg, steps,
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
    targets = premises(concl, rule, inst)
    if not RULES[rule].consumes:
        return [weaken_to(d, t) for t in targets]
    other = dual(rule)
    side, p = principal(rule, inst)
    ours = added(rule, inst)

    def closed(goal, mine):
        return step(other, goal, inst,
                    [lambda s, e=crossed(mine, theirs): identity(s, e)
                     for theirs in added(other, inst)])

    if side == "ante":
        return [exactly(cut(closed(t.add_cons(p), mine), d, p), t)
                for t, mine in zip(targets, ours)]
    ((ante, cons),) = ours
    left = weaken_to(d, Sequent(concl.ante.union(ante), concl.cons.union(cons)))
    right = closed(Sequent.make([p, *ante], cons), ours[0])
    return [exactly(cut(left, right, p), targets[0])]
