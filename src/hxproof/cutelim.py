"""Cut elimination: locate a topmost cut and push it away.

Each pass selects a (Cut) with no other cut above it, so both premiss
derivations are cut-free, and applies the matching transformation family:
axiom and weakening interactions discharge the cut outright, a non-principal
cut permutes upward, and a rule cut against its dual (`derived.dual`), both
principal, splits into cuts of strictly smaller complexity under the
lexicographic (expression size, cut height) measure.
Eigen-nominals are renamed eagerly before any permutation can capture them.

Two right rules can meet across a cut (the witness of a right comparison or
substitution produced by a right diamond); those reduce through the
substitution rule for modal steps. A cut that none of these families reduces
(for instance a right diamond over a compound body, required as path
evidence by a right comparison) is stuck: `eliminate_cuts` raises
`CutStuck`, whose message starts "stuck cut", and never re-proves by search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering

from .derived import (
    added, crossed, dual, principal, replace, required, weaken_to,
)
from .kernel import (
    AX, BOT_RULE, CUT, DIA_R, METAVAR_KINDS, RULES, S2, WL, WR,
    Derivation, KernelError, Sequent, SideConditionViolated, axiom,
    cut, freeze_inst, infer, premises_of,
)
from .syntax import (
    At, Diamond, Nominal,
    fresh_nominals, print_node, rename_nominal, size,
)


# a guard only: each reduction step lowers the cut measure
MAX_REDUCE_STEPS = 200000


class CutEliminationError(KernelError):
    pass


class CutStuck(CutEliminationError):
    """The selected cut admits no local, measure-decreasing replacement."""


@dataclass
class ReduceEvent:
    kind: str
    path: tuple
    selected: CutComplexity
    introduced: list = field(default_factory=list)

    def decreasing(self):
        return all(c < self.selected for c in self.introduced)

    def as_json(self):
        return {"kind": self.kind, "path": list(self.path),
                "selected": self.selected.as_tuple(),
                "introduced": [c.as_tuple() for c in self.introduced]}


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def cut_positions(d):
    """Every cut with its path, in preorder; cut-free subtrees, told by
    their cached cut count, are not entered."""
    out = []
    stack = [((), d)] if d.cuts else []
    while stack:
        path, node = stack.pop()
        if node.rule == CUT:
            out.append((path, node))
        for t in range(len(node.children) - 1, -1, -1):
            if node.children[t].cuts:
                stack.append((path + (t,), node.children[t]))
    return out


def topmost_cuts(d):
    """Cuts with no other cut above them (their premisses are cut-free)."""
    return [(path, node) for path, node in cut_positions(d) if node.cuts == 1]


def select_cut(d):
    """Topmost cut of minimal cut height; ties broken leftmost (preorder)."""
    cands = topmost_cuts(d)
    if not cands:
        return None
    best = min(range(len(cands)),
               key=lambda t: (cut_complexity(cands[t][1]).h, t))
    return cands[best]


# ---------------------------------------------------------------------------
# Roles of the cut expression in a premiss derivation
# ---------------------------------------------------------------------------

def _role_in_right(node, phi):
    inst = node.inst_dict
    if principal(node.rule, inst) == ("ante", phi):
        return "principal"
    if phi in required(node.rule, inst):
        return "required"
    return "context"


def _role_in_left(node, phi):
    if principal(node.rule, node.inst_dict) == ("cons", phi):
        return "principal"
    return "context"


# ---------------------------------------------------------------------------
# Cut measure, renaming and eigen-nominal hygiene
# ---------------------------------------------------------------------------

@total_ordering
@dataclass(frozen=True)
class CutComplexity:
    """Lexicographic (size of active cut expression, cut height)."""

    k: int
    h: int

    def __lt__(self, other):
        return (self.k, self.h) < (other.k, other.h)

    def as_tuple(self):
        return (self.k, self.h)


def cut_height(node):
    if node.rule != CUT:
        raise KernelError("cut_height on a non-Cut node")
    return node.children[0].height + node.children[1].height


def cut_complexity(node):
    if node.rule != CUT:
        raise KernelError("cut_complexity on a non-Cut node")
    return CutComplexity(size(node.inst_dict["phi"]), cut_height(node))


def nominals(d):
    """The nominals of every conclusion and instantiation in the tree, as a
    new set. Each node keeps its subtree's set, so a tree rebuilt along one
    path recomputes only that path; the sets are filled bottom-up over an
    explicit stack, so at any height."""
    stack = [d]
    while stack:
        node = stack[-1]
        if "_noms" in node.__dict__:
            stack.pop()
            continue
        todo = [c for c in node.children if "_noms" not in c.__dict__]
        if todo:
            stack += todo
            continue
        stack.pop()
        out = set(node.conclusion._noms)
        for key, v in node.inst:
            match METAVAR_KINDS[key]:
                case "nominal":
                    out.add(v)
                case "path" | "node":
                    out |= v.noms
        node.__dict__["_noms"] = frozenset(
            out.union(*(c.__dict__["_noms"] for c in node.children)))
    return set(d.__dict__["_noms"])


def _rename(e, names):
    """`e` under the renaming `names`; each new name is fresh, so renaming
    one old name after another renames them all at once."""
    for old, new in names.items():
        e = rename_nominal(e, old, new)
    return e


def _rename_inst(inst, names):
    out = {}
    for key, v in inst:
        match METAVAR_KINDS[key]:
            case "nominal":
                out[key] = names.get(v, v)
            case "path" | "node":
                out[key] = _rename(v, names)
            case _:
                out[key] = v
    return freeze_inst(out)


def _renamed(d, names, down=lambda node, names: names):
    """`d` with the nominals of each node renamed by a map from old to
    fresh names. The root's map is `down(d, names)`, and each other node's
    is `down` of the node and its parent's map. The maps are worked out in
    preorder and the nodes rebuilt bottom-up, over an explicit stack, so at
    any height."""
    done, stack = [], [(d, names, None)]
    while stack:
        node, names, arity = stack.pop()
        if arity is None:
            names = down(node, names)
            stack.append((node, names, len(node.children)))
            stack += [(c, names, None) for c in reversed(node.children)]
            continue
        kids = tuple(done[len(done) - arity:])
        del done[len(done) - arity:]
        seq, inst = node.conclusion, node.inst
        if names:
            seq = Sequent(frozenset(_rename(e, names) for e in seq.ante),
                          frozenset(_rename(e, names) for e in seq.cons))
            inst = _rename_inst(inst, names)
        done.append(Derivation(seq, node.rule, inst, kids))
    return done[0]


def rename_nominal_derivation(d, old, new):
    """Rewrite a derivation under a nominal renaming (capture-avoiding).

    `new` must not occur anywhere in the tree; the result re-checks.
    """
    if old == new:
        return d
    if new in nominals(d):
        raise SideConditionViolated(
            f"nominal {new} already occurs in the derivation")
    return substitute_nominal_derivation(d, old, new)


def substitute_nominal_derivation(d, old, new):
    """Unchecked nominal substitution throughout a derivation.

    Callers must ensure no eigen-nominal capture (the eliminator refreshes
    eigen-nominals first); use rename_nominal_derivation for the safe form.
    """
    return d if old == new else _renamed(d, {old: new})


def _eigens_of(node):
    r = RULES.get(node.rule)
    return [node.inst_dict[m] for m in r.eigens] if r else []


def eigen_refresh(d, forbidden):
    """Rename every eigen-nominal in the tree to a globally fresh one, drawn
    in preorder."""
    forbidden = set(forbidden) | nominals(d)

    def down(node, names):
        for old in _eigens_of(node):
            (new,) = fresh_nominals(1, forbidden)
            forbidden.add(new)
            names = {**names, old: new}
        return names

    return _renamed(d, {}, down)


# ---------------------------------------------------------------------------
# Transformation families
# ---------------------------------------------------------------------------

def _transform(node, scope_noms):
    """Replace one topmost cut; returns (replacement, introduced, kind)."""
    left, right = node.children
    phi = node.inst_dict["phi"]
    concl = node.conclusion

    # axiom premisses
    if left.rule == AX:
        chi = left.inst_dict["phi"]
        if chi != phi:
            return axiom(AX, concl, {"phi": chi}), [], "axiom-left"
        return weaken_to(right, concl), [], "axiom-left-cutformula"
    if left.rule == BOT_RULE:
        return axiom(BOT_RULE, concl, {"i": left.inst_dict["i"]}), [], "bot-left"
    if right.rule == AX:
        chi = right.inst_dict["phi"]
        if chi != phi:
            return axiom(AX, concl, {"phi": chi}), [], "axiom-right"
        return weaken_to(left, concl), [], "axiom-right-cutformula"
    # (Bot) closes the conclusion unless the cut formula is its falsum; that
    # cut permutes left below, as no rule has falsum principal on the right
    if right.rule == BOT_RULE and _role_in_right(right, phi) != "principal":
        return axiom(BOT_RULE, concl, right.inst_dict), [], "bot-right"

    # a cut formula already present on the other side makes the cut redundant
    if phi in left.conclusion.ante:
        return weaken_to(right, concl), [], "redundant-left"
    if phi in right.conclusion.cons:
        return weaken_to(left, concl), [], "redundant-right"

    # the cut formula arrived by weakening
    if left.rule == WR and left.inst_dict["phi"] == phi \
            and phi not in left.children[0].conclusion.cons:
        return weaken_to(left.children[0], concl), [], "weakened-left"
    if right.rule == WL and right.inst_dict["phi"] == phi \
            and phi not in right.children[0].conclusion.ante:
        return weaken_to(right.children[0], concl), [], "weakened-right"

    if right.rule in (WL, WR):
        role_r = "context"  # a weakening of something else, or a duplicate
    else:
        role_r = _role_in_right(right, phi)
    if role_r == "context":
        return _permute(node, into="right", scope_noms=scope_noms)

    role_l = _role_in_left(left, phi) if left.rule not in (WL, WR) else "context"
    if role_l == "context":
        return _permute(node, into="left", scope_noms=scope_noms)

    # principal on both sides
    try:
        if dual(left.rule) == right.rule:
            return _principal_pair(node, scope_noms)
        if left.rule == DIA_R and role_r == "required":
            return _family_dia_required(node)
    except CutStuck:
        raise
    except KernelError as e:
        raise CutStuck(f"family construction failed: {e}") from None
    raise CutStuck(f"no local reduction: {left.rule} against {right.rule} "
                   f"over {print_node(phi)}")


def _permute(node, into, scope_noms):
    """Push the cut above a rule for which the cut formula is context."""
    left, right = node.children
    phi = node.inst_dict["phi"]
    concl = node.conclusion
    target = right if into == "right" else left
    other = left if into == "right" else right

    if _eigens_of(target):
        target = eigen_refresh(
            target, scope_noms | nominals(other) | concl.nominals())

    if target.rule in (WL, WR):
        child = target.children[0]
        if into == "right":
            if phi not in child.conclusion.ante:
                raise CutStuck("cut formula lost under weakening")
            newcut = cut(other, child, phi)
        else:
            if phi not in child.conclusion.cons:
                raise CutStuck("cut formula lost under weakening")
            newcut = cut(child, other, phi)
        inner = weaken_to(newcut, concl)
        return inner, [cut_complexity(newcut)], f"permute-{into}-weakening"

    # through the kernel's memo, which `infer` below then reads
    expected = premises_of(concl, target.rule, target.inst)
    kids = []
    introduced = []
    for q, want in zip(target.children, expected):
        if into == "right":
            if phi not in q.conclusion.ante:
                raise CutStuck("cut formula not in premiss context")
            newcut = cut(other, q, phi)
        else:
            if phi not in q.conclusion.cons:
                raise CutStuck("cut formula not in premiss context")
            newcut = cut(q, other, phi)
        introduced.append(cut_complexity(newcut))
        if newcut.conclusion == want:
            kids.append(newcut)
        elif newcut.conclusion.issubset(want):
            kids.append(weaken_to(newcut, want))
        else:
            raise CutStuck(f"permuted premiss does not fit {target.rule}")
    return (infer(target.rule, concl, target.inst_dict, kids),
            introduced, f"permute-{into}-{target.rule}")


def _principal_pair(node, scope_noms):
    """A right rule cut against its left dual, both principal on the cut.

    The left premiss is cut against each right premiss in turn, on the
    formula one rule adds on the left and the other on the right. A left
    rule that keeps the cut formula (DiaR, CmpR) first has it cut against
    the whole right derivation, and the right rule's eigen-nominals are
    renamed to the left instance's witnesses.
    """
    left, right = node.children
    inst = left.inst_dict
    (cur,) = left.children
    introduced = []
    if not RULES[left.rule].consumes:
        cur = cut(cur, right, node.inst_dict["phi"])
        introduced.append(cut_complexity(cur))
    eigens = RULES[right.rule].eigens
    if eigens:
        right = eigen_refresh(right, scope_noms | nominals(left))
        right = _renamed(right, {right.inst_dict[m]: inst[m] for m in eigens})
    (ours,) = added(left.rule, inst)
    for q, theirs in zip(right.children, added(right.rule, inst)):
        e = crossed(ours, theirs)
        # oriented by the right premiss: ImpR adds @i phi on both sides
        # when phi and psi are equal
        cur = cut(q, cur, e) if e in theirs[1] else cut(cur, q, e)
        introduced.append(cut_complexity(cur))
    # event kinds name the connective: principal-imp, -at, -dia, -cmp, -neq
    kind = "principal-" + right.rule.removesuffix("L").lower()
    return weaken_to(cur, node.conclusion), introduced, kind


def _family_dia_required(node):
    """Right rules on both sides: route the modal step through substitution."""
    left, right = node.children
    phi = node.inst_dict["phi"]
    body = left.inst_dict["phi"]
    if not isinstance(body, Nominal):
        raise CutStuck("required modal evidence with a non-nominal body")
    i, a, w = left.inst_dict["i"], left.inst_dict["a"], left.inst_dict["j"]
    x = body.name
    cut1 = cut(left.children[0], right, phi)
    step_formula = At(w, Nominal(x))
    bridged = weaken_to(right, right.conclusion.add_ante(
        step_formula, At(i, Diamond(a, Nominal(w)))))
    s2_concl = bridged.conclusion.drop_ante(phi)
    s2_node = infer(S2, s2_concl, {"i": i, "j": w, "k": x, "a": a}, [bridged])
    cut2 = cut(cut1, s2_node, step_formula)
    out = weaken_to(cut2, node.conclusion)
    return out, [cut_complexity(cut1), cut_complexity(cut2)], "right-right-s2"


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def reduce_once(d):
    """Apply one transformation to the selected topmost cut.

    Returns (derivation, event); raises CutStuck when no local family
    reduces the cut and ValueError when the tree is already cut-free.
    """
    sel = select_cut(d)
    if sel is None:
        raise ValueError("derivation is cut-free")
    path, node = sel
    scope = nominals(d)
    try:
        replacement, introduced, kind = _transform(node, scope)
    except CutStuck as e:
        where = "/".join(map(str, path)) or "root"
        raise CutStuck(f"stuck cut at {where}: {e}") from None
    event = ReduceEvent(kind, path, cut_complexity(node), introduced)
    if not event.decreasing():
        raise CutEliminationError(
            f"non-decreasing reduction {kind}: {event.selected} -> {introduced}")
    return replace(d, path, replacement), event


def eliminate_cuts(d, trace=None):
    """Iterate reduce_once to a cut-free derivation of the same end-sequent.

    Each step is local and lowers the cut measure; a cut with no local
    reduction raises CutStuck (a CutEliminationError) instead.
    """
    end = d.conclusion
    for _ in range(MAX_REDUCE_STEPS):
        if not d.cuts:
            if d.conclusion != end:
                raise CutEliminationError("end-sequent changed")
            return d
        d, event = reduce_once(d)
        if trace is not None:
            trace.append(event)
    raise CutEliminationError("step limit exceeded")
