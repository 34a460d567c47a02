"""Cut elimination: locate a topmost cut and push it away.

Each step selects a (Cut) with no other cut above it, so both premiss
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

`eliminate_cuts` selects at each step the topmost cut of least cut height,
leftmost in preorder on ties, and a step costs what its transformation
touches, not the size of the tree:
- the topmost cuts wait in a heap keyed on (cut height, path); a replacement
  adds the topmost cuts it brings, and a cut joins them when the last cut
  above it is gone;
- the tree under elimination keeps a mutable node for each node with a cut
  at or above it, over the cut-free derivations it holds, so a replacement
  is put in place in one slot; each such node is built as a `Derivation`
  once, when the nearest cut below it becomes topmost, or at the end;
- a refreshed eigen-nominal avoids one set per run: the input's nominals,
  computed when a refresh first asks for them, and every name drawn since.
  A step only reuses formulas and witnesses already in the tree or draws
  fresh names, so every nominal of the tree under elimination is in it;
- renaming maps each distinct sequent member once, and rebuilds a weakening
  forward from its renamed premiss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from heapq import heappop, heappush

from .derived import (
    added, crossed, dual, principal, required, weaken_to,
)
from .kernel import (
    AX, BOT_RULE, CUT, DIA_R, METAVAR_KINDS, RULES, S2, WL, WR,
    Derivation, KernelError, Sequent, axiom,
    cut, freeze_inst, infer, premises_of, weaken,
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
    selected: tuple
    introduced: list = field(default_factory=list)

    def decreasing(self):
        return all(c < self.selected for c in self.introduced)

    def as_json(self):
        return {"kind": self.kind, "path": list(self.path),
                "selected": self.selected, "introduced": self.introduced}


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

def cut_height(node):
    if node.rule != CUT:
        raise KernelError("cut_height on a non-Cut node")
    return node.children[0].height + node.children[1].height


def cut_complexity(node):
    """Lexicographic (size of active cut expression, cut height)."""
    if node.rule != CUT:
        raise KernelError("cut_complexity on a non-Cut node")
    return (size(node.inst_dict["phi"]), cut_height(node))


def nominals(d):
    """The nominals of every conclusion and instantiation in the tree, as a
    new set, by one `Derivation.walk`, so at any height. A node adds its
    instantiation's nominals and, at a leaf only, its conclusion's: in a
    tree that checks, every conclusion member occurs in a premiss or is
    built from the instantiation."""
    out = set()
    for _, node in d.walk():
        for key, v in node.inst:
            match METAVAR_KINDS[key]:
                case "nominal":
                    out.add(v)
                case "path" | "node":
                    out |= v.noms
        if not node.children:
            out |= node.conclusion._noms
    return out


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


def _renamed_member(e, names, memo):
    out = memo.get(e)
    if out is None:
        out = memo[e] = _rename(e, names)
    return out


def _renamed(d, names, down=lambda node, names: names):
    """`d` with the nominals of each node renamed by a map from old to
    fresh names. The root's map is `down(d, names)`, and each other node's
    is `down` of the node and its parent's map. The maps are worked out in
    preorder and the nodes rebuilt bottom-up, over an explicit stack, so at
    any height. Each map renames a distinct member once, and a weakening is
    rebuilt forward from its renamed premiss, so it renames only its own
    formula."""
    done, stack = [], [(d, names, {}, None)]
    while stack:
        node, names, memo, arity = stack.pop()
        if arity is None:
            mine = down(node, names)
            if mine is not names:
                names, memo = mine, {}
            stack.append((node, names, memo, len(node.children)))
            stack += [(c, names, memo, None) for c in reversed(node.children)]
            continue
        kids = tuple(done[len(done) - arity:])
        del done[len(done) - arity:]
        if node.rule in (WL, WR):
            phi = _renamed_member(node.inst_dict["phi"], names, memo)
            done.append(weaken(kids[0], "left" if node.rule == WL else "right",
                               phi))
        else:
            seq = Sequent(
                frozenset(_renamed_member(e, names, memo)
                          for e in node.conclusion.ante),
                frozenset(_renamed_member(e, names, memo)
                          for e in node.conclusion.cons))
            done.append(Derivation(seq, node.rule,
                                   _rename_inst(node.inst, names), kids))
    return done[0]


def _eigens_of(node):
    r = RULES.get(node.rule)
    return [node.inst_dict[m] for m in r.eigens] if r else []


def eigen_refresh(d, avoid):
    """Rename every eigen-nominal in the tree to a fresh one, drawn in
    preorder from outside the set `avoid`, which must hold the nominals of
    `d`; each name drawn is added to it."""

    def down(node, names):
        for old in _eigens_of(node):
            (new,) = fresh_nominals(1, avoid)
            avoid.add(new)
            names = {**names, old: new}
        return names

    return _renamed(d, {}, down)


# ---------------------------------------------------------------------------
# Transformation families
# ---------------------------------------------------------------------------

def _transform(node, avoid):
    """Replace one topmost cut; returns (replacement, introduced, kind).
    `avoid()` gives the run's set of nominals that a refreshed eigen-nominal
    must avoid (`eigen_refresh`)."""
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
        return _permute(node, into="right", avoid=avoid)

    role_l = _role_in_left(left, phi) if left.rule not in (WL, WR) else "context"
    if role_l == "context":
        return _permute(node, into="left", avoid=avoid)

    # principal on both sides
    try:
        if dual(left.rule) == right.rule:
            return _principal_pair(node, avoid)
        if left.rule == DIA_R and role_r == "required":
            return _family_dia_required(node)
    except CutStuck:
        raise
    except KernelError as e:
        raise CutStuck(f"family construction failed: {e}") from None
    raise CutStuck(f"no local reduction: {left.rule} against {right.rule} "
                   f"over {print_node(phi)}")


def _permute(node, into, avoid):
    """Push the cut above a rule for which the cut formula is context."""
    left, right = node.children
    phi = node.inst_dict["phi"]
    concl = node.conclusion
    target = right if into == "right" else left
    other = left if into == "right" else right

    if _eigens_of(target):
        target = eigen_refresh(target, avoid())

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


def _principal_pair(node, avoid):
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
        right = eigen_refresh(right, avoid())
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

def _step(node, path, avoid):
    """Transform the cut `node` at `path`; returns (replacement, event)."""
    try:
        replacement, introduced, kind = _transform(node, avoid)
    except CutStuck as e:
        where = "/".join(map(str, path)) or "root"
        raise CutStuck(f"stuck cut at {where}: {e}") from None
    event = ReduceEvent(kind, path, cut_complexity(node), introduced)
    if not event.decreasing():
        raise CutEliminationError(
            f"non-decreasing reduction {kind}: {event.selected} -> {introduced}")
    return replacement, event


class _Open:
    """A node of the tree under elimination with a cut at or above it: its
    conclusion, rule and instantiation, its children `kids`, each a cut-free
    `Derivation` or an `_Open`, and the slot `up.kids[slot]` that holds it.
    It keeps no reference to the node it stands for, whose old children
    would stay alive through it. A cut also keeps its `path`, the nearest
    cut below it (`outer`), the number of cuts whose nearest cut below is
    this one (`inner`; it is topmost when that is 0) and, once topmost, its
    `Derivation` (`node`)."""

    __slots__ = ("conclusion", "rule", "inst", "kids", "up", "slot",
                 "path", "outer", "inner", "node")

    def __init__(self, node, up, slot):
        self.up, self.slot = up, slot
        if node is None:  # the holder of the root
            self.kids = [None]
        else:
            self.conclusion, self.rule, self.inst = \
                node.conclusion, node.rule, node.inst
            self.kids = list(node.children)


def _hang(d, up, slot, path, outer, heap):
    """Put `d`, the subtree at `path`, in `up.kids[slot]`, with an `_Open`
    for each node that has a cut at or above it, and push its topmost cuts
    onto `heap`; over an explicit stack, so at any height."""
    if not d.cuts:
        up.kids[slot] = d
        return
    stack = [(d, up, slot, path, outer)]
    while stack:
        node, up, slot, path, outer = stack.pop()
        o = up.kids[slot] = _Open(node, up, slot)
        if node.rule == CUT:
            o.path, o.outer, o.inner = path, outer, 0
            if outer is not None:
                outer.inner += 1
            if node.cuts == 1:
                o.node = node
                heappush(heap, (cut_height(node), path, o))
            outer = o
        for t, c in enumerate(node.children):
            if c.cuts:
                stack.append((c, o, t, path + (t,), outer))


def _build(o):
    """The derivation that `o` stands for, put in its slot. Each `_Open` in
    it is built once, bottom-up over an explicit stack."""
    stack = [o]
    while stack:
        x = stack[-1]
        todo = [k for k in x.kids if isinstance(k, _Open)]
        if todo:
            stack += todo
            continue
        stack.pop()
        x.up.kids[x.slot] = Derivation(x.conclusion, x.rule, x.inst,
                                       tuple(x.kids))
    return o.up.kids[o.slot]


def eliminate_cuts(d, trace=None):
    """Reduce topmost cuts, the one of least cut height first and the
    leftmost in preorder on ties, to a cut-free derivation of the same
    end-sequent.

    Each step is local and lowers the cut measure; a cut with no local
    reduction raises CutStuck (a CutEliminationError) instead.
    """
    root, heap = _Open(None, None, 0), []
    _hang(d, root, 0, (), None, heap)
    avoid = cache(partial(nominals, d))
    for _ in range(MAX_REDUCE_STEPS):
        if not heap:
            break
        _, path, o = heappop(heap)
        replacement, event = _step(o.node, path, avoid)
        if trace is not None:
            trace.append(event)
        outer = o.outer
        if outer is not None:
            outer.inner -= 1
        _hang(replacement, o.up, o.slot, path, outer, heap)
        if outer is not None and outer.inner == 0:
            # the cut below is now topmost: build it over its premisses,
            # whose heights give its key
            outer.node = _build(outer)
            heappush(heap, (cut_height(outer.node), outer.path, outer))
    else:
        raise CutEliminationError("step limit exceeded")
    out = root.kids[0]
    if isinstance(out, _Open):
        out = _build(out)
    if out.conclusion != d.conclusion:
        raise CutEliminationError("end-sequent changed")
    return out
