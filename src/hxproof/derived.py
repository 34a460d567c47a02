"""Derived rules as macro expansions into primitive derivations, and the
untrusted construction helpers that search, cut elimination and the macros
share.

The helpers read the kernel's rule table (`decompose`, `dual`, `principal`,
`required`, `added`) and build fragments (`open_leaf`, `graft`, `replace`,
`weaken_to`) from the kernel's verified constructors only, so nothing here
is trusted: every tree they build is re-checked by `check_derivation`.

Each macro builds, top-down through the kernel's premiss memo
(`premises_of`), a fragment whose open leaves are exactly the derived rule's
premisses, so every context is exact and every expansion re-checks; closed
macros return whole derivations. `step` computes a node's premisses once:
`infer` then reads them from the memo. A derived rule names its steps as a
list of `(rule, inst)` moves: `chain` applies each move to the one premiss
of the move before, and its builders build the premisses of the last move.
A premiss that carries more than the derived rule's declared leaf (say, a
falsum put on the right by an implication step) reaches that leaf through
`weaken_to(open_leaf(declared), reached)`, which is the open leaf itself
when the two are equal; there is no separate `fill_open`.
`identity` closes a member on both sides by the dual pair that `decompose`
names, so it states no connective's rules itself.
"""

from __future__ import annotations

from operator import attrgetter

from .kernel import (
    AT_5, AT_L, AT_R, AT_T, AX, BOT_RULE, CMP_L, CMP_R, DIA_L, DIA_R,
    EQ_5, EQ_T, IMP_L, IMP_R, NEQ_L, NEQ_R, OPEN, RULES, S1,
    Derivation, KernelError, ax_shape, axiom, cut, evidence, freeze_inst,
    infer, instance, premises_of, s1_shape, weaken,
)
from .syntax import (
    At, BOT, CmpKind, Compare, Diamond, Implies, Jump, Nominal, conj,
    fresh_nominals, neg, print_node,
)


class MacroError(KernelError):
    pass


# ---------------------------------------------------------------------------
# Reading the rule table
# ---------------------------------------------------------------------------

# A left and a right rule sharing one principal template are duals: under one
# instantiation, the premisses of each close against those of the other.
_DUALS = {n: m for n, r in RULES.items() for m, s in RULES.items()
          if r.principal is not None and s.principal is r.principal
          and s.side != r.side}


def decompose(e):
    """The (left, right) dual pair whose principal the compound member `e`
    is, and their shared metavariables bound (eigens and witnesses not)."""
    # keyword patterns skip `__match_args__`; search calls this per member
    match e:
        case At(nom=i, body=phi):
            match phi:
                case Implies(lhs=lhs, rhs=rhs):
                    return (IMP_L, IMP_R), {"i": i, "phi": lhs, "psi": rhs}
                case At(nom=k, body=body):
                    return (AT_L, AT_R), {"i": k, "j": i, "phi": body}
                case Diamond(mod=a, body=body):
                    return (DIA_L, DIA_R), {"i": i, "a": a, "phi": body}
                case Compare(left=alpha, kind=kind, cmp=c, right=beta):
                    return (CMP_L, CMP_R), {"i": i, "alpha": alpha,
                                            "beta": beta, "kind": kind, "c": c}
        case Compare(left=Jump(nom=i), kind=CmpKind.NEQ, cmp=c,
                     right=Jump(nom=j)):
            return (NEQ_L, NEQ_R), {"i": i, "j": j, "c": c}
    raise KernelError(f"not a compound member: {print_node(e)}")


def principal(rule, inst):
    """(side, expression) of a logical rule's principal, or None."""
    r, v = instance(rule, inst)
    return None if r.principal is None else (r.side, r.principal(v))


def required(rule, inst):
    """The antecedent formulas a logical rule needs and keeps."""
    r, v = instance(rule, inst)
    return {t(v) for t in r.required}


def added(rule, inst):
    """Per premiss, the (antecedent, consequent) formulas a logical rule adds."""
    r, v = instance(rule, inst)
    return [t(v) for t in r.premisses]


def dual(rule):
    """The logical rule with the same principal on the other side, or None."""
    return _DUALS.get(rule)


# ---------------------------------------------------------------------------
# Fragments: open leaves, grafting and weakening chains
# ---------------------------------------------------------------------------

def open_leaf(seq):
    """A fragment premiss: a leaf justified by assumption, not by a rule."""
    return Derivation(seq, OPEN, ())


def open_leaves(d):
    return [(Derivation.path_of(where), node.conclusion)
            for where, node in d.walk() if node.rule == OPEN]


def replace(d, path, new):
    """`d` with the subtree at `path` replaced by `new`; the nodes along the
    path are rebuilt in a loop, so at any height."""
    spine = [d]
    for t in path[:-1]:
        spine.append(spine[-1].children[t])
    for node, t in zip(reversed(spine), reversed(path)):
        kids = list(node.children)
        kids[t] = new
        new = Derivation(node.conclusion, node.rule, node.inst, tuple(kids))
    return new


def graft(fragment, fillers):
    """Replace each open leaf, in preorder, with a derivation of the same
    sequent: `fillers` maps sequents to derivations (or is a callable
    sequent->tree). Each is put in by `replace`, so at any height."""
    for path, seq in open_leaves(fragment):
        filler = fillers(seq) if callable(fillers) else fillers[seq]
        if filler.conclusion != seq:
            raise KernelError("graft filler proves the wrong sequent")
        fragment = replace(fragment, path, filler)
    return fragment


def weaken_to(d, target):
    """Chain of weakenings from d's end-sequent up to `target` (a superset)."""
    if not d.conclusion.issubset(target):
        raise KernelError(
            f"cannot weaken {d.conclusion} to non-superset {target}")
    for e in sorted(target.ante - d.conclusion.ante, key=attrgetter("key")):
        d = weaken(d, "left", e)
    for e in sorted(target.cons - d.conclusion.cons, key=attrgetter("key")):
        d = weaken(d, "right", e)
    return d


def step(rule, goal, inst, builders):
    """Apply one backward rule; builders produce the premiss subtrees. The
    premisses are read through the kernel's memo, where `infer` reads them
    again."""
    prem = premises_of(goal, rule, freeze_inst(inst))
    if len(prem) != len(builders):
        raise MacroError(f"{rule}: expected {len(prem)} premisses")
    return infer(rule, goal, inst, [b(s) for b, s in zip(builders, prem)])


def chain(goal, moves, builders):
    """Apply the `(rule, inst)` moves upward from `goal`, each `step` to the
    one premiss of the move before; `builders` build the premisses of the
    last move."""
    (rule, inst), *rest = moves
    if rest:
        return step(rule, goal, inst, [lambda s: chain(s, rest, builders)])
    return step(rule, goal, inst, builders)


# ---------------------------------------------------------------------------
# Closed macros
# ---------------------------------------------------------------------------

def identity(goal, e):
    """Close a goal with the sequent member `e` on both sides: an atom by
    its axiom, any other member by the rule of its dual pair
    (`decompose`) whose one premiss adds an antecedent formula, with
    fresh eigen-nominals, and then by `close_dual` with the other rule."""
    if e not in goal.ante or e not in goal.cons:
        raise MacroError(f"identity: {print_node(e)} must occur on both sides")
    if ax_shape(e):
        return axiom(AX, goal, {"phi": e})
    if isinstance(e, At) and e.body == BOT:
        return axiom(BOT_RULE, goal, {"i": e.nom})
    pair, inst = decompose(e)
    eigens = RULES[pair[0]].eigens
    inst.update(zip(eigens, fresh_nominals(len(eigens), goal.nominals())))
    for first in pair:
        mine, *more = added(first, inst)
        if not more and mine[0]:
            break
    return step(first, goal, inst,
                [lambda s: close_dual(dual(first), s, inst, mine)])


def axg(goal, i, phi):
    """Generalized axiom (AxG): close @_i phi, Γ ⊢ Δ, @_i phi for any phi."""
    return identity(goal, At(i, phi))


def close_dual(rule, goal, inst, mine):
    """Apply `rule` to `goal`, and close each premiss by identity on the
    formula it and `mine` put on opposite sides; `mine` is what one premiss
    of the dual rule adds under the same instantiation."""
    return step(rule, goal, inst,
                [lambda s, e=crossed(mine, theirs): identity(s, e)
                 for theirs in added(rule, inst)])


def crossed(x, y):
    """The one formula that two premisses' additions put on opposite sides.

    `x` and `y` are (antecedent, consequent) pairs from `added`, one
    premiss of each of two dual rules under one instantiation.
    """
    (e,) = (set(x[0]) & set(y[1])) | (set(x[1]) & set(y[0]))
    return e


def transfer(goal, i, j, phi):
    """Generalized substitution: close @_i j, @_i phi, Γ ⊢ Δ, @_j phi.

    Extends (S1) beyond its restricted shapes by structural recursion; the
    comparison case moves path evidence indexed by i to j through cuts.
    """
    alias = At(i, Nominal(j))
    carrier = At(i, phi)
    target = At(j, phi)
    if alias not in goal.ante or carrier not in goal.ante:
        raise MacroError("transfer: alias or carrier missing on the left")
    if target not in goal.cons:
        raise MacroError("transfer: target missing on the right")
    if s1_shape(phi):
        return step(S1, goal, {"i": i, "j": j, "phi": phi},
                    [lambda s: identity(s, target)])
    match phi:
        case Nominal(k):
            return step(AT_5, goal, {"i": i, "j": j, "k": k},
                        [lambda s: identity(s, target)])
        case At(m, body):
            inst = {"j": j, "i": m, "phi": body}
            (mine,) = added(AT_R, inst)
            return step(AT_R, goal, inst,
                        [lambda s: close_dual(AT_L, s, dict(inst, j=i), mine)])
        case Implies(lhs, rhs):
            # the first ImpL premiss needs @_i lhs from @_j lhs: flip the
            # alias first
            flip = [(AT_T, {"i": i}), (AT_5, {"i": i, "j": j, "k": i})]
            back = [lambda s: transfer(s, j, i, lhs)]
            moves = [(IMP_R, {"i": j, "phi": lhs, "psi": rhs}),
                     (IMP_L, {"i": i, "phi": lhs, "psi": rhs})]
            return chain(goal, moves, [lambda s: chain(s, flip, back),
                                       lambda s: transfer(s, i, j, rhs)])
        case Diamond(a, body):
            (u,) = fresh_nominals(1, goal.nominals())
            moves = [(DIA_L, {"i": i, "a": a, "phi": body, "j": u}),
                     (S1, {"i": i, "j": j, "phi": Diamond(a, Nominal(u))}),
                     (DIA_R, {"i": j, "a": a, "phi": body, "j": u})]
            return chain(goal, moves, [lambda s: axg(s, u, body)])
        case Compare(alpha, kind, c, beta):
            u, v = fresh_nominals(2, goal.nominals())
            inst = {"i": i, "alpha": alpha, "beta": beta, "kind": kind, "c": c,
                    "j": u, "k": v}
            # evidence whose index a head jump fixes is the same at i and j;
            # the rest moves across the alias, each through one cut
            moved = [evidence(j, p, w) for p, w in ((alpha, u), (beta, v))
                     if evidence(i, p, w) != evidence(j, p, w)]
            def after_cmpl(s):
                added_cmp = Compare(Jump(u), kind, c, Jump(v))
                d = step(CMP_R, s.add_ante(*moved), dict(inst, i=j),
                         [lambda s2_: identity(s2_, added_cmp)])
                for t in reversed(range(len(moved))):
                    e, base = moved[t], s.add_ante(*moved[:t])
                    d = cut(transfer(base.add_cons(e), i, j, e.body), d, e)
                return weaken_to(d, s)
            return step(CMP_L, goal, inst, [after_cmpl])
    raise MacroError(f"transfer: unexpected expression {print_node(phi)}")


# ---------------------------------------------------------------------------
# Fragment macros (open leaves are the derived rule's premisses)
# ---------------------------------------------------------------------------

def and_left(goal, i, phi, psi):
    """(∧L): one open leaf @_i phi, @_i psi, Γ ⊢ Δ."""
    inner = Implies(phi, neg(psi))
    p = At(i, conj(phi, psi))
    if p not in goal.ante:
        raise MacroError(f"∧L: principal missing: {print_node(p)}")
    declared = goal.drop_ante(p).add_ante(At(i, phi), At(i, psi))
    moves = [(IMP_R, {"i": i, "phi": phi, "psi": neg(psi)}),
             (IMP_R, {"i": i, "phi": psi, "psi": BOT})]
    to_leaf = [lambda s: weaken_to(open_leaf(declared), s)]
    return step(IMP_L, goal, {"i": i, "phi": inner, "psi": BOT},
                [lambda s: chain(s, moves, to_leaf),
                 lambda s: axiom(BOT_RULE, s, {"i": i})])


def and_right(goal, i, phi, psi):
    """(∧R): open leaves Γ ⊢ Δ, @_i phi and Γ ⊢ Δ, @_i psi."""
    inner = Implies(phi, neg(psi))
    p = At(i, conj(phi, psi))
    if p not in goal.cons:
        raise MacroError(f"∧R: principal missing: {print_node(p)}")
    rest = goal.drop_cons(p)
    declared1 = rest.add_cons(At(i, phi))
    declared2 = rest.add_cons(At(i, psi))
    moves = [(IMP_R, {"i": i, "phi": inner, "psi": BOT}),
             (IMP_L, {"i": i, "phi": phi, "psi": neg(psi)})]
    second = [lambda s: weaken_to(open_leaf(declared2), s),
              lambda s: axiom(BOT_RULE, s, {"i": i})]
    return chain(goal, moves,
                 [lambda s: weaken_to(open_leaf(declared1), s),
                  lambda s: step(IMP_L, s, {"i": i, "phi": psi, "psi": BOT},
                                 second)])


def iff_right(goal, i, phi, psi):
    """(↔R): open leaves @_i phi, Γ ⊢ Δ, @_i psi and @_i psi, Γ ⊢ Δ, @_i phi."""
    a, b = Implies(phi, psi), Implies(psi, phi)
    frag = and_right(goal, i, a, b)
    rest = goal.drop_cons(At(i, conj(a, b)))

    def extend(leaf):
        if leaf == rest.add_cons(At(i, a)):
            lhs, rhs = phi, psi
        elif leaf == rest.add_cons(At(i, b)):
            lhs, rhs = psi, phi
        else:
            raise MacroError("↔R: unexpected open leaf")
        declared = rest.add_ante(At(i, lhs)).add_cons(At(i, rhs))
        return step(IMP_R, leaf, {"i": i, "phi": lhs, "psi": rhs},
                    [lambda s: weaken_to(open_leaf(declared), s)])

    return graft(frag, extend)


def cmp_flip(goal, x, kind, c, y):
    """(⟨▲⟩B): from <y: ^ x:>, Γ ⊢ Δ conclude <x: ^ y:>, Γ ⊢ Δ."""
    p = Compare(Jump(x), kind, c, Jump(y))
    if p not in goal.ante:
        raise MacroError(f"⟨▲⟩B: principal missing: {print_node(p)}")
    flipped = Compare(Jump(y), kind, c, Jump(x))
    declared = goal.drop_ante(p).add_ante(flipped)
    if x == y:
        return open_leaf(goal)
    if kind is CmpKind.EQ:
        return chain(goal, [(EQ_T, {"i": x, "c": c}),
                            (EQ_5, {"i": x, "j": y, "k": x, "c": c})],
                     [lambda s: weaken_to(open_leaf(declared), s)])
    # inequality: derive the flipped form by cutting on it
    eq = Compare(Jump(x), CmpKind.EQ, c, Jump(y))
    lemma = chain(goal.add_cons(flipped),
                  [(NEQ_R, {"i": y, "j": x, "c": c}),
                   (NEQ_L, {"i": x, "j": y, "c": c}),
                   (EQ_T, {"i": y, "c": c}),
                   (EQ_5, {"i": y, "j": x, "k": y, "c": c})],
                  [lambda s: axiom(AX, s, {"phi": eq})])
    return weaken_to(cut(lemma, open_leaf(declared), flipped), goal)
